// Checkpoint/warm-start codec: a versioned, deterministic byte image of
// every piece of mutable run state — device slabs, flow state, RNG
// streams, engine sequence counters, and the full pending-event set.
//
// The contract that makes warm starts trustworthy (tests/test_snapshot.cpp
// asserts all of it):
//
//   * Layout independence. The image is a pure function of the logical
//     simulation: events from every shard are merged in (timestamp, key)
//     order, devices walk in node order, unordered containers are
//     key-sorted, and per-shard scratch (completion logs, arena layout,
//     steal telemetry) is folded or excluded. save() at 1 shard and
//     save() at 8 shards of the same run produce identical bytes.
//
//   * Exact continuation. restore() onto a freshly-constructed
//     (ShardedSimulator, Network) pair — same topology, scheme, and
//     overrides — rebuilds the run so that continuing to any later time
//     is bit-identical to a run that never paused, at any restore-side
//     shard count. Per-shard event totals are reconstructed from the
//     engine's per-node attribution (ShardedSimulator::node_event_counts)
//     plus harness-credited closure ticks.
//
//   * Versioned rejection. The image carries a magic/version header and a
//     configuration fingerprint (topology size, scheme, resolved
//     parameters, fault-plan shape); restore() refuses a mismatch instead
//     of resurrecting state into the wrong world.
//
// What is deliberately NOT serialized: closure (environment) events — the
// harness owns its samplers and re-seeds them for ticks past the
// checkpoint (see ExperimentRun::restore) — and every derived or cached
// field that the restore path can recompute (pause-horizon bytes, reclaim
// horizons, head-pause memos, cached Bloom snapshots, route lookahead).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace bfc {

class Network;
class ShardedSimulator;

class Snapshot {
 public:
  // Image format version. Bump on any layout change; restore() rejects
  // other versions. v2: setup-space sequence counters, packed route ids
  // in the flow section, intrusive ready-FIFO + lazy sender slabs in the
  // NIC section. v3: one pending RTO event per flow — the flow section
  // stores its deadline, key and armed bit instead of a generation.
  static constexpr std::uint32_t kVersion = 3;

  // Serializes the complete mutable state of (sim, net) at simulated time
  // `at`. Preconditions: the engine is idle (run_until(at) returned) and
  // `at` is the stop time it ran to. Folds the per-shard completion logs
  // into the Network's FlowStats (behavior-neutral: the harness folds at
  // collect time anyway) and drains the cross-shard transport so the
  // per-shard wheels hold the full pending-event set.
  static std::vector<std::uint8_t> save(ShardedSimulator& sim, Network& net,
                                        Time at);

  // Rebuilds the saved run onto a freshly-constructed (sim, net) pair over
  // the identical topology/scheme/overrides. The pair must not have run
  // any events or prepared any flows; a fault schedule must have been
  // adopted via Network::adopt_faults (NOT install_faults — the image
  // already carries the pending transition events). On success every
  // shard's clock sits at the checkpoint time and run_until continues the
  // run exactly. On failure returns false, leaves the pair unusable, and
  // writes a diagnostic into *error when provided.
  static bool restore(ShardedSimulator& sim, Network& net,
                      const std::vector<std::uint8_t>& image,
                      std::string* error = nullptr);

  // The checkpoint's simulated time, parsed from the header (no state
  // touched). Returns -1 on a malformed or wrong-version image.
  static Time saved_time(const std::vector<std::uint8_t>& image);

 private:
  // All codec helpers live here (snapshot.cpp). A nested class shares the
  // enclosing class's access, so Impl inherits every `friend class
  // Snapshot` grant across the device headers.
  struct Impl;
};

}  // namespace bfc
