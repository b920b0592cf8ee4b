// The checkpoint/warm-start contract (core/snapshot.hpp), end to end:
//
//   * Exact continuation — pause a run mid-traffic or at the traffic stop,
//     restore onto a fresh engine at 1/2/4 shards, finish: every reported
//     stat (flow records, buffer series, event totals, per-shard event
//     counts) is bit-identical to a run that never paused at that shard
//     count.
//   * Layout independence — save() at 1 shard and at 4 shards of the
//     same simulated moment produce identical bytes, and a restored run
//     re-saves to the identical image.
//   * Mid-storm checkpoints — pausing inside a link-flap storm preserves
//     the fault plane exactly (pending transition events ride the image).
//   * Versioned rejection — corrupted magic/version headers and
//     mismatched configurations are refused, never half-restored.
//   * Parallel points — run_points fans independent experiments out over
//     threads; the results are in input order and identical to serial
//     runs.
#include "core/snapshot.hpp"

#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "test_util.hpp"

using namespace bfc;

namespace {

ExperimentConfig base_config(int shards, bool storm, const TopoGraph& topo) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kBfc;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = 0.5;
  cfg.traffic.incast_load = 0.05;
  cfg.traffic.stop = microseconds(200);
  cfg.traffic.seed = 42;
  cfg.drain = microseconds(400);
  cfg.shards = shards;
  cfg.goodput_sample_period = microseconds(20);
  if (storm) {
    // Six flaps landing inside [40us, 160us] with a 30us hold: the
    // checkpoint below (at 100us) sits mid-storm, so some transitions
    // have fired (device counters nonzero) and some are still pending
    // events that must ride the image.
    cfg.faults = FaultPlan::random_flaps(topo, 6, microseconds(40),
                                         microseconds(160),
                                         microseconds(30), 7);
  }
  return cfg;
}

// Everything the harness reports that is a pure function of the
// simulation (wall_sec / events_stolen and friends legitimately vary).
void check_identical(const ExperimentResult& a, const ExperimentResult& b) {
  CHECK(a.flows_started == b.flows_started);
  CHECK(a.flows_completed == b.flows_completed);
  CHECK(a.drops == b.drops);
  CHECK(a.bfc.pauses == b.bfc.pauses);
  CHECK(a.bfc.resumes == b.bfc.resumes);
  CHECK(a.bfc.overflow_packets == b.bfc.overflow_packets);
  CHECK(a.collision_frac == b.collision_frac);
  CHECK(a.buffer_samples_mb == b.buffer_samples_mb);
  CHECK(a.goodput_bytes == b.goodput_bytes);
  CHECK(a.p99_slowdown == b.p99_slowdown);
  CHECK(a.bins.size() == b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    CHECK(a.bins[i].slowdowns == b.bins[i].slowdowns);
  }
  CHECK(a.blackholed == b.blackholed);
  CHECK(a.reroutes == b.reroutes);
  CHECK(a.unreachable_parks == b.unreachable_parks);
  CHECK(a.events_processed == b.events_processed);
  CHECK(a.egress_ports_hw == b.egress_ports_hw);
  CHECK(a.ingress_ports_hw == b.ingress_ports_hw);
  CHECK(a.reclaim_sweeps == b.reclaim_sweeps);
  CHECK(a.reclaimed_ports == b.reclaimed_ports);
  CHECK(a.table_chunks == b.table_chunks);
  CHECK(a.receiver_slots_hw == b.receiver_slots_hw);
  CHECK(a.nic_class_transitions == b.nic_class_transitions);
}

void check_continuation(const TopoGraph& topo, bool storm) {
  // Checkpoints from a 1-shard run paused mid-traffic, and at the traffic
  // stop: by then the generators have emitted the whole trace, so the
  // restore re-posts no pump and only the drain remains.
  const ExperimentConfig warm_cfg = base_config(1, storm, topo);
  std::vector<WarmCheckpoint> cps;
  for (const Time pause_at : {microseconds(100), warm_cfg.traffic.stop}) {
    ExperimentRun warm(topo, warm_cfg);
    warm.run_to(pause_at);
    cps.push_back(warm.checkpoint());
    CHECK(cps.back().at == pause_at);
    CHECK(!cps.back().image.empty());
    CHECK(Snapshot::saved_time(cps.back().image) == pause_at);
  }

  for (const int shards : {1, 2, 4}) {
    const ExperimentConfig cfg = base_config(shards, storm, topo);
    const ExperimentResult cold = run_experiment(topo, cfg);
    CHECK(cold.flows_completed > 0);
    if (storm) CHECK(cold.blackholed + cold.reroutes > 0);

    for (const WarmCheckpoint& cp : cps) {
      std::string err;
      std::unique_ptr<ExperimentRun> run =
          ExperimentRun::restore(topo, cfg, cp, &err);
      if (run == nullptr) {
        std::fprintf(stderr, "restore(shards=%d, at=%.0fus) failed: %s\n",
                     shards, to_usec(cp.at), err.c_str());
        CHECK(run != nullptr);
      }
      const ExperimentResult thawed = run->collect();
      CHECK(thawed.shards == shards);
      check_identical(cold, thawed);
      // Per-shard totals too: the node-attributed counts plus the
      // harness's closure credit must rebuild exactly what an unbroken
      // run reports.
      CHECK(cold.shard_events == thawed.shard_events);
    }
  }
}

void check_layout_independence(const TopoGraph& topo) {
  const Time pause_at = microseconds(100);
  WarmCheckpoint cps[2];
  const int counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ExperimentRun run(topo, base_config(counts[i], /*storm=*/true, topo));
    run.run_to(pause_at);
    cps[i] = run.checkpoint();
  }
  // Same simulated moment, different save-side shard counts: the image is
  // a pure function of the logical simulation, so the bytes match.
  CHECK(cps[0].image == cps[1].image);
  CHECK(cps[0].buffer_prefix == cps[1].buffer_prefix);
  CHECK(cps[0].goodput_prefix == cps[1].goodput_prefix);

  // And restoring (onto 2 shards) then re-saving reproduces the image.
  const ExperimentConfig cfg = base_config(2, /*storm=*/true, topo);
  std::string err;
  std::unique_ptr<ExperimentRun> run =
      ExperimentRun::restore(topo, cfg, cps[0], &err);
  CHECK(run != nullptr);
  const WarmCheckpoint again = run->checkpoint();
  CHECK(again.at == pause_at);
  CHECK(again.image == cps[0].image);
}

void check_rejection(const TopoGraph& topo) {
  const Time pause_at = microseconds(100);
  ExperimentRun run(topo, base_config(1, /*storm=*/false, topo));
  run.run_to(pause_at);
  WarmCheckpoint cp = run.checkpoint();

  // Corrupt magic: not recognized as a snapshot at all.
  {
    WarmCheckpoint bad = cp;
    bad.image[0] ^= 0xFF;
    CHECK(Snapshot::saved_time(bad.image) == -1);
    std::string err;
    CHECK(ExperimentRun::restore(topo, base_config(2, false, topo), bad,
                                 &err) == nullptr);
    CHECK(!err.empty());
  }
  // Corrupt version (the u32 right after the 8-byte magic).
  {
    WarmCheckpoint bad = cp;
    bad.image[8] ^= 0xFF;
    CHECK(Snapshot::saved_time(bad.image) == -1);
    std::string err;
    CHECK(ExperimentRun::restore(topo, base_config(2, false, topo), bad,
                                 &err) == nullptr);
    CHECK(err.find("version") != std::string::npos);
  }
  // Truncated image: bounds-checked parse, clean failure.
  {
    WarmCheckpoint bad = cp;
    bad.image.resize(bad.image.size() / 2);
    std::string err;
    CHECK(ExperimentRun::restore(topo, base_config(2, false, topo), bad,
                                 &err) == nullptr);
  }
  // Configuration fingerprint: a different scheme must be refused.
  {
    ExperimentConfig other = base_config(2, /*storm=*/false, topo);
    other.scheme = Scheme::kDcqcnWin;
    std::string err;
    CHECK(ExperimentRun::restore(topo, other, cp, &err) == nullptr);
    CHECK(err.find("fingerprint") != std::string::npos);
  }
  // Well-formed *older*-version images must be refused outright — the
  // reader never guesses at an old layout (v1: serialized hop vectors, no
  // setup-space counters; v2: a per-flow RTO generation instead of the
  // pending timer's deadline and key). The header is 8 bytes of magic
  // then a little-endian u32 version, so rewriting that word forges one.
  for (const int old_version : {1, 2}) {
    WarmCheckpoint bad = cp;
    bad.image[8] = static_cast<std::uint8_t>(old_version);
    bad.image[9] = 0;
    bad.image[10] = 0;
    bad.image[11] = 0;
    CHECK(Snapshot::saved_time(bad.image) == -1);
    std::string err;
    CHECK(ExperimentRun::restore(topo, base_config(2, false, topo), bad,
                                 &err) == nullptr);
    CHECK(err.find("version") != std::string::npos);
  }
}

// The 4096-host tier under the PR 7 memory diet: a checkpoint taken
// mid-traffic — flows mid-flight with packed route ids resolved, sender
// FIFOs threaded through Flow::elig_next, streamed generator replicas
// mid-window — still round-trips byte-identically across save-side shard
// counts, and a warm continuation matches its cold twin.
void check_t3_4096_scale_snapshot() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_4096());
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kBfc;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = 0.3;
  cfg.traffic.incast_load = 0.02;
  cfg.traffic.stop = microseconds(25);
  cfg.traffic.seed = 11;
  cfg.drain = microseconds(115);
  const Time pause_at = microseconds(12);

  WarmCheckpoint cps[2];
  const int counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    cfg.shards = counts[i];
    ExperimentRun run(topo, cfg);
    run.run_to(pause_at);
    cps[i] = run.checkpoint();
  }
  CHECK(!cps[0].image.empty());
  CHECK(cps[0].image == cps[1].image);

  cfg.shards = 2;
  const ExperimentResult cold = run_experiment(topo, cfg);
  CHECK(cold.flows_completed > 0);
  std::string err;
  std::unique_ptr<ExperimentRun> run =
      ExperimentRun::restore(topo, cfg, cps[0], &err);
  if (run == nullptr) {
    std::fprintf(stderr, "t3_4096 restore failed: %s\n", err.c_str());
    CHECK(run != nullptr);
  }
  const ExperimentResult thawed = run->collect();
  check_identical(cold, thawed);
  CHECK(cold.shard_events == thawed.shard_events);
}

void check_run_points(const TopoGraph& topo) {
  // Distinct points (storm on/off, one multi-shard) so a result landing
  // in the wrong slot cannot pass.
  std::vector<ExperimentConfig> cfgs;
  cfgs.push_back(base_config(1, /*storm=*/false, topo));
  cfgs.push_back(base_config(1, /*storm=*/true, topo));
  cfgs.push_back(base_config(2, /*storm=*/true, topo));
  std::vector<ExperimentResult> batch(cfgs.size());
  run_points(cfgs.size(), [&](std::size_t i) {
    batch[i] = run_experiment(topo, cfgs[i]);
  });
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const ExperimentResult serial = run_experiment(topo, cfgs[i]);
    CHECK(batch[i].shards == serial.shards);
    check_identical(serial, batch[i]);
    CHECK(serial.shard_events == batch[i].shard_events);
  }
  CHECK(batch[0].blackholed == 0);
  CHECK(batch[1].blackholed + batch[1].reroutes > 0);
}

}  // namespace

int main() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  check_continuation(topo, /*storm=*/false);
  check_continuation(topo, /*storm=*/true);
  check_layout_independence(topo);
  check_rejection(topo);
  check_run_points(topo);
  check_t3_4096_scale_snapshot();
  return 0;
}
