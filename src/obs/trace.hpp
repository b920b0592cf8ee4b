// Chrome-trace (Perfetto-loadable) JSON export of per-shard timelines.
//
// Schema: one process (pid 0), one track per shard (tid = shard index,
// named via "thread_name" metadata). Span buffers become complete ("X")
// events with sim-time microsecond timestamps — "clock-wait" (args:
// peer_shard), "steal-batch" (args: executor, events), "reclaim-sweep"
// (args: switch, ports), "flow-pause" (args: switch, port) — and epoch
// gauge samples become counter ("C") tracks per gauge. Load the file at
// ui.perfetto.dev or chrome://tracing.
#pragma once

#include "obs/metrics.hpp"

namespace bfc::obs {

// Writes `t`'s buffered spans and counter samples to `path` through a
// per-writer temporary file renamed over it, so concurrent writers leave
// one whole trace; returns false on I/O failure.
bool write_chrome_trace(const char* path, const Telemetry& t);

}  // namespace bfc::obs
