// Streaming trace differential: the lazy per-shard ArrivalStream pullers
// must reproduce the materialized generate_trace schedule exactly — same
// arrivals in the same order at any window size — and an experiment that
// streams its trace window by window must report bit-identical end-to-end
// stats to a one-window run (gen_window >= traffic.stop: the whole trace
// is emitted at setup, before the clock starts) at every shard count.
#include <vector>

#include "harness/experiment.hpp"
#include "workload/traffic_gen.hpp"

#include "test_util.hpp"

using namespace bfc;

namespace {

TrafficConfig traffic(Time stop, std::uint64_t seed) {
  TrafficConfig t;
  t.dist = &SizeDist::by_name("google");
  t.load = 0.5;
  t.incast_load = 0.05;
  t.stop = stop;
  t.seed = seed;
  return t;
}

// Arrival-sequence identity: pull the stream window by window (including
// deliberately awkward window sizes — a prime stride, a window bigger
// than the whole trace) and compare against the materialized schedule
// element for element.
void check_trace_identity(const char* name, const TopoGraph& topo,
                          const TrafficConfig& cfg, Time window) {
  const std::vector<FlowArrival> eager = generate_trace(topo, cfg);
  CHECK(!eager.empty());
  ArrivalStream stream(topo, cfg);
  std::vector<FlowArrival> streamed;
  const auto sink = [&](const FlowArrival& a) { streamed.push_back(a); };
  for (Time b = 0; b < cfg.stop; b += window) {
    stream.advance(std::min(b + window, cfg.stop), sink);
  }
  CHECK(streamed.size() == eager.size());
  Time prev = 0;
  for (std::size_t i = 0; i < eager.size(); ++i) {
    CHECK(streamed[i].at == eager[i].at);
    CHECK(streamed[i].key == eager[i].key);
    CHECK(streamed[i].bytes == eager[i].bytes);
    CHECK(streamed[i].uid == eager[i].uid);
    CHECK(streamed[i].incast == eager[i].incast);
    CHECK(streamed[i].at >= prev);  // start order, like the trace
    prev = streamed[i].at;
  }
  std::printf("trace identity ok: %s (%zu arrivals, window %.1f us)\n", name,
              eager.size(), to_usec(window));
}

ExperimentResult run_windowed(const TopoGraph& topo, int shards,
                              Time gen_window) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kBfc;
  cfg.traffic = traffic(microseconds(150), 7);
  cfg.drain = microseconds(450);
  cfg.shards = shards;
  cfg.gen_window = gen_window;
  return run_experiment(topo, cfg);
}

// Simulation-level stats only: each pump window adds a closure to the env
// entity, so engine event *counts* legitimately differ between window
// sizes — what must not differ is anything the simulation computed.
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
  CHECK(a.bins.size() == b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    CHECK(a.bins[i].slowdowns == b.bins[i].slowdowns);
  }
  CHECK(a.nic_class_transitions == b.nic_class_transitions);
  CHECK(a.receiver_slots_hw == b.receiver_slots_hw);
  CHECK(a.table_chunks == b.table_chunks);
}

void check_experiment_identity(const char* name, const TopoGraph& topo) {
  // One window covering the whole trace: every flow start is posted at
  // setup and no pump ever runs — the reference schedule.
  const ExperimentResult oracle = run_windowed(topo, 1, microseconds(150));
  CHECK(oracle.flows_started > 0);
  CHECK(oracle.flows_completed > 0);
  for (const int shards : {1, 2, 4}) {
    // Several pump windows per run.
    const ExperimentResult streamed =
        run_windowed(topo, shards, microseconds(20));
    CHECK(streamed.shards == shards);
    check_identical(oracle, streamed);
  }
  std::printf("experiment identity ok: %s (%llu flows, shards 1/2/4)\n", name,
              static_cast<unsigned long long>(oracle.flows_completed));
}

}  // namespace

int main() {
  const TopoGraph t1 = TopoGraph::fat_tree(FatTreeConfig::t1());
  const TopoGraph t3 = TopoGraph::three_tier(ThreeTierConfig::t3_1024());
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    const TrafficConfig cfg = traffic(microseconds(200), seed);
    check_trace_identity("t1_128", t1, cfg, microseconds(7));
    check_trace_identity("t1_128", t1, cfg, microseconds(1000));
    check_trace_identity("t3_1024", t3, cfg, microseconds(7));
    check_trace_identity("t3_1024", t3, cfg, microseconds(50));
  }
  check_experiment_identity("t1_128", t1);
  check_experiment_identity("t3_1024", t3);
  return 0;
}
