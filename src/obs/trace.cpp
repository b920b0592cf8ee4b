#include "obs/trace.hpp"

#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <string>

namespace bfc::obs {

namespace {

// Sim time is integer ns; the trace format's "ts"/"dur" are double
// microseconds, so %.3f is exact.
double usec(Time t) { return static_cast<double>(t) * 1e-3; }

void emit_span(std::FILE* f, int shard, const TraceSpan& s, bool* first) {
  const char* comma = *first ? "" : ",\n";
  *first = false;
  const Time dur = s.t1 > s.t0 ? s.t1 - s.t0 : 0;
  switch (s.kind) {
    case SpanKind::kClockWait:
      std::fprintf(f,
                   "%s{\"name\":\"clock-wait\",\"ph\":\"X\",\"pid\":0,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"peer_shard\":%d}}",
                   comma, shard, usec(s.t0), usec(dur), s.a);
      break;
    case SpanKind::kSteal:
      std::fprintf(f,
                   "%s{\"name\":\"steal-batch\",\"ph\":\"X\",\"pid\":0,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"executor\":%d,\"events\":%" PRId64 "}}",
                   comma, shard, usec(s.t0), usec(dur), s.a, s.b);
      break;
    case SpanKind::kReclaim:
      std::fprintf(f,
                   "%s{\"name\":\"reclaim-sweep\",\"ph\":\"X\",\"pid\":0,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"switch\":%d,\"ports\":%" PRId64 "}}",
                   comma, shard, usec(s.t0), usec(dur), s.a, s.b);
      break;
    case SpanKind::kPause:
      std::fprintf(f,
                   "%s{\"name\":\"flow-pause\",\"ph\":\"X\",\"pid\":0,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"switch\":%d,\"port\":%" PRId64 "}}",
                   comma, shard, usec(s.t0), usec(dur), s.a, s.b);
      break;
    case SpanKind::kGaugeSample:
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":0,"
                   "\"tid\":%d,\"ts\":%.3f,"
                   "\"args\":{\"value\":%" PRId64 "}}",
                   comma, gauge_name(s.a), shard, usec(s.t0), s.b);
      break;
    case SpanKind::kLinkDown:
      std::fprintf(f,
                   "%s{\"name\":\"link-down\",\"ph\":\"X\",\"pid\":0,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"node\":%d,\"port\":%" PRId64 "}}",
                   comma, shard, usec(s.t0), usec(dur), s.a, s.b);
      break;
  }
}

}  // namespace

bool write_chrome_trace(const char* path, const Telemetry& t) {
  // Concurrent runs (run_points) may export to one path: each writer fills
  // its own temporary file in the same directory, then rename()s it over
  // the path, so the file is always one writer's complete trace.
  static std::atomic<unsigned> writers{0};
  const std::string tmp = std::string(path) + ".tmp." +
                          std::to_string(::getpid()) + "." +
                          std::to_string(writers.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (int s = 0; s < t.n_shards(); ++s) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%d,\"args\":{\"name\":\"shard %d\"}}",
                 first ? "" : ",\n", s, s);
    first = false;
    for (const TraceSpan& sp : t.shard(s).spans) {
      emit_span(f, s, sp, &first);
    }
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok ||
      std::rename(tmp.c_str(), path) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace bfc::obs
