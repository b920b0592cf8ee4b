// The telemetry hard requirement: observation must never steer the
// simulation. Runs the same experiment with telemetry off, with the
// metrics registry on, with full tracing, and with the flight recorder,
// at 1, 4, and 8 shards — every reported simulation stat must be
// bit-identical to the telemetry-off baseline at the same shard count
// (and across shard counts, which the off-baseline itself asserts).
// Also sanity-checks the exported Chrome trace: it must be non-trivial
// and carry the per-shard track metadata Perfetto keys on, writers
// racing on one export path must leave one whole, parseable trace, and
// run_points must give each traced point its own file.
#include "harness/experiment.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/trace.hpp"

#include "test_util.hpp"

using namespace bfc;

namespace {

ExperimentResult run_one(const TopoGraph& topo, int shards) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kBfc;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = 0.5;
  cfg.traffic.incast_load = 0.05;
  cfg.traffic.stop = microseconds(200);
  cfg.traffic.seed = 42;
  cfg.drain = microseconds(400);
  cfg.shards = shards;
  return run_experiment(topo, cfg);
}

// Simulation stats only — never the scheduling telemetry (clock_waits,
// steal counters, ...), which legitimately varies with the knobs under
// test.
void check_identical(const ExperimentResult& a, const ExperimentResult& b) {
  CHECK(a.flows_started == b.flows_started);
  CHECK(a.flows_completed == b.flows_completed);
  CHECK(a.drops == b.drops);
  CHECK(a.bfc.pauses == b.bfc.pauses);
  CHECK(a.bfc.resumes == b.bfc.resumes);
  CHECK(a.bfc.overflow_packets == b.bfc.overflow_packets);
  CHECK(a.collision_frac == b.collision_frac);
  CHECK(a.buffer_samples_mb == b.buffer_samples_mb);
  CHECK(a.p99_slowdown == b.p99_slowdown);
  // Device telemetry is a pure function of the simulation, so it is held
  // to the same bit-identical standard as the paper stats.
  CHECK(a.egress_ports_hw == b.egress_ports_hw);
  CHECK(a.ingress_ports_hw == b.ingress_ports_hw);
  CHECK(a.reclaim_sweeps == b.reclaim_sweeps);
  CHECK(a.reclaimed_ports == b.reclaimed_ports);
  CHECK(a.table_chunks == b.table_chunks);
  CHECK(a.receiver_slots_hw == b.receiver_slots_hw);
  CHECK(a.nic_class_transitions == b.nic_class_transitions);
}

void clear_knobs() {
  unsetenv("BFC_METRICS");
  unsetenv("BFC_TRACE");
  unsetenv("BFC_TRACE_OUT");
  unsetenv("BFC_FLIGHT");
  unsetenv("BFC_METRICS_EPOCH");
}

std::string slurp(const char* path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// JSON syntax check, just enough for the exporter's output (objects,
// arrays, escape-free strings, numbers): tells one whole trace from two
// interleaved ones.
class JsonCheck {
 public:
  explicit JsonCheck(const std::string& s) : s_(s) {}
  bool ok() {
    const bool v = value();
    ws();
    return v && i_ == s_.size();
  }

 private:
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void ws() {
    while (std::isspace(static_cast<unsigned char>(peek()))) ++i_;
  }
  bool eat(char c) {
    ws();
    if (peek() != c) return false;
    ++i_;
    return true;
  }
  bool str() {
    if (!eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') ++i_;
    return eat('"');
  }
  bool number() {
    const std::size_t start = i_;
    while (std::isdigit(static_cast<unsigned char>(peek())) ||
           peek() == '-' || peek() == '.' || peek() == 'e' ||
           peek() == 'E' || peek() == '+') {
      ++i_;
    }
    return i_ > start;
  }
  template <class Item>
  bool seq(char close, Item item) {
    if (eat(close)) return true;
    do {
      if (!item()) return false;
    } while (eat(','));
    return eat(close);
  }
  bool value() {
    ws();
    if (eat('{')) {
      return seq('}', [this] { return str() && eat(':') && value(); });
    }
    if (eat('[')) return seq(']', [this] { return value(); });
    if (peek() == '"') return str();
    return number();
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// A telemetry root with two tracks of 4000 clock-wait spans naming peer
// `peer` (one digit): exports differ in content, not length, and each
// takes many buffered writes.
obs::Telemetry traced(int peer) {
  const int n_shards = 2;
  obs::Telemetry::Config cfg;
  cfg.metrics = true;
  cfg.trace = true;
  obs::Telemetry t(cfg, n_shards);
  for (int s = 0; s < n_shards; ++s) {
    for (int i = 0; i < 4000; ++i) {
      t.shard(s).span(obs::SpanKind::kClockWait, i * 10, i * 10 + 5, peer,
                      0);
    }
  }
  return t;
}

// Concurrent runs (run_points) share BFC_TRACE_OUT: two threads exporting
// different traces to one path at once must leave exactly one writer's
// complete trace behind after every round.
void check_concurrent_export() {
  const obs::Telemetry a = traced(1);
  const obs::Telemetry b = traced(2);
  const char* solo_a = "test_telemetry_solo_a.json";
  const char* solo_b = "test_telemetry_solo_b.json";
  CHECK(obs::write_chrome_trace(solo_a, a));
  CHECK(obs::write_chrome_trace(solo_b, b));
  const std::string want_a = slurp(solo_a);
  const std::string want_b = slurp(solo_b);
  std::remove(solo_a);
  std::remove(solo_b);
  CHECK(JsonCheck(want_a).ok());
  CHECK(JsonCheck(want_b).ok());
  CHECK(want_a != want_b);

  const char* shared = "test_telemetry_shared.json";
  for (int round = 0; round < 20; ++round) {
    bool ok[2] = {true, true};
    std::atomic<int> ready{0};
    auto writer = [&](const obs::Telemetry& t, bool* res) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      for (int i = 0; i < 3; ++i) {
        *res = obs::write_chrome_trace(shared, t) && *res;
      }
    };
    std::thread ta(writer, std::cref(a), &ok[0]);
    std::thread tb(writer, std::cref(b), &ok[1]);
    ta.join();
    tb.join();
    CHECK(ok[0] && ok[1]);
    const std::string got = slurp(shared);
    CHECK(JsonCheck(got).ok());
    CHECK(got == want_a || got == want_b);
  }
  std::remove(shared);
}

// run_points gives every traced point its own export, `<stem>.p<i><ext>`
// of BFC_TRACE_OUT: two points (2 and 4 shards) leave two whole,
// different traces, and nothing at the bare path.
void check_per_point_export(const TopoGraph& topo) {
  const char* bare = "test_telemetry_points.json";
  const char* files[2] = {"test_telemetry_points.p0.json",
                          "test_telemetry_points.p1.json"};
  std::remove(bare);
  for (const char* f : files) std::remove(f);
  setenv("BFC_TRACE", "1", 1);
  setenv("BFC_TRACE_OUT", bare, 1);
  run_points(2, [&](std::size_t i) {
    run_one(topo, 2 + 2 * static_cast<int>(i));
  });
  clear_knobs();
  const std::string got[2] = {slurp(files[0]), slurp(files[1])};
  for (const std::string& t : got) {
    CHECK(t.find("\"traceEvents\"") != std::string::npos);
    CHECK(JsonCheck(t).ok());
  }
  CHECK(got[0] != got[1]);
  CHECK(slurp(bare).empty());
  for (const char* f : files) std::remove(f);
}

}  // namespace

int main() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  const int kShardCounts[] = {1, 4, 8};

  clear_knobs();
  ExperimentResult base[3];
  for (int i = 0; i < 3; ++i) base[i] = run_one(topo, kShardCounts[i]);
  CHECK(base[0].flows_completed > 0);
  check_identical(base[0], base[1]);
  check_identical(base[0], base[2]);

  // Metrics registry on: same stats at every shard count.
  setenv("BFC_METRICS", "1", 1);
  for (int i = 0; i < 3; ++i) {
    const ExperimentResult r = run_one(topo, kShardCounts[i]);
    check_identical(base[i], r);
    // The registry did observe something: epoch sampling runs at every
    // shard count (clock waits would need >1 shard, so check a gauge).
    CHECK(r.arena_blocks_hw > 0);
  }
  // A tighter sampling epoch changes only how often gauges are read,
  // never what the simulation does.
  setenv("BFC_METRICS_EPOCH", "1000", 1);
  check_identical(base[1], run_one(topo, 4));
  unsetenv("BFC_METRICS_EPOCH");
  clear_knobs();

  // Full tracing (implies metrics), with the exporter writing a real
  // file: stats still bit-identical, and the file is a Chrome trace with
  // per-shard thread tracks.
  const char* trace_path = "test_telemetry_trace.json";
  std::remove(trace_path);
  setenv("BFC_TRACE", "1", 1);
  setenv("BFC_TRACE_OUT", trace_path, 1);
  check_identical(base[1], run_one(topo, 4));
  const std::string trace = slurp(trace_path);
  CHECK(!trace.empty());
  CHECK(trace.find("\"traceEvents\"") != std::string::npos);
  CHECK(trace.find("\"thread_name\"") != std::string::npos);
  CHECK(trace.find("\"clock-wait\"") != std::string::npos);
  std::remove(trace_path);
  clear_knobs();

  // Flight recorder on: stats identical, and every shard's ring holds
  // records (each shard ran events in this partition).
  setenv("BFC_FLIGHT", "128", 1);
  const ExperimentResult fl = run_one(topo, 4);
  check_identical(base[1], fl);
  CHECK(fl.flight.size() == 4);
  std::size_t recorded = 0;
  for (const auto& ring : fl.flight) recorded += ring.size();
  CHECK(recorded > 0);
  clear_knobs();

  check_concurrent_export();
  check_per_point_export(topo);

  std::printf("test_telemetry_determinism: OK\n");
  return 0;
}
