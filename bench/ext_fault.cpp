// Extension: deterministic fault plane — graceful degradation under a
// link-flap storm (core/fault.hpp). A three-flap storm hits the 1024-host
// three-tier fabric mid-run: two seeded fabric (switch<->switch) flaps
// that ECMP must steer around, plus one access-link flap of a host the
// arrival trace provably sends to, which exercises unreachable parking
// and RTO-driven recovery. BFC must complete every flow, keep its p99
// buffer bounded through the storm, and recover goodput after the last
// link comes back; DCQCN+Win (GBN) and DCQCN+Win+IRN run the same storm
// for the degradation comparison. Exits nonzero on any failed assertion
// (CI runs this at BFC_BENCH_SCALE=0.05).
#include "bench_json.hpp"
#include "bench_util.hpp"

#include "core/fault.hpp"

using namespace bfc;

namespace {

bool g_ok = true;

void check(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "ext_fault: FAILED: %s\n", what);
    g_ok = false;
  }
}

struct Storm {
  FaultPlan plan;
  Time first_down = 0;
  Time last_up = 0;
};

// The storm is a pure function of (topo, traffic, stop): two seeded
// fabric flaps in [0.35, 0.45]*stop holding 0.15*stop, and an access-link
// flap of the first traced non-incast destination in [0.5, 0.6]*stop.
Storm make_storm(const TopoGraph& topo, const TrafficConfig& traffic,
                 Time stop) {
  Storm s;
  s.plan = FaultPlan::random_flaps(topo, 2, (stop * 35) / 100,
                                   (stop * 45) / 100, (stop * 15) / 100, 7);
  int dst = -1;
  for (const FlowArrival& a : generate_trace(topo, traffic)) {
    if (!a.incast) {
      dst = static_cast<int>(a.key.dst);
      break;
    }
  }
  if (dst >= 0) {
    const int tor = topo.ports(dst)[0].peer;
    s.plan.add_link_flap(dst, tor, (stop * 50) / 100, (stop * 60) / 100);
  }
  for (const FaultPlan::Transition& tr : s.plan.transitions()) {
    if (!tr.up && (s.first_down == 0 || tr.at < s.first_down)) {
      s.first_down = tr.at;
    }
    if (tr.up && tr.at > s.last_up) s.last_up = tr.at;
  }
  return s;
}

struct Recovery {
  double prefault_gbps = 0;   // mean goodput before the first down
  double recovered_gbps = 0;  // best post-recovery tick
  double recovery_us = -1;    // last_up -> first tick back at >= 60%
  bool recovered = false;
  bool measurable = false;    // enough pre-fault ticks to set a bar
};

Recovery analyze(const ExperimentResult& r, Time period, const Storm& storm) {
  Recovery rec;
  const auto& g = r.goodput_bytes;
  double pre_sum = 0;
  int pre_n = 0;
  for (std::size_t i = 1; i < g.size(); ++i) {
    const Time t = static_cast<Time>(i) * period;
    const double gbps =
        static_cast<double>(g[i] - g[i - 1]) * 8.0 / static_cast<double>(period);
    if (t <= storm.first_down) {
      pre_sum += gbps;
      ++pre_n;
    } else if (t > storm.last_up) {
      if (gbps > rec.recovered_gbps) rec.recovered_gbps = gbps;
      if (!rec.recovered && pre_n > 0 && gbps >= 0.6 * (pre_sum / pre_n)) {
        rec.recovered = true;
        rec.recovery_us =
            static_cast<double>(t - storm.last_up) * 1e-3;
      }
    }
  }
  if (pre_n > 0) {
    rec.prefault_gbps = pre_sum / pre_n;
    rec.measurable = rec.prefault_gbps > 0;
  }
  return rec;
}

}  // namespace

int main() {
  const Time stop = static_cast<Time>(microseconds(400) * bench_scale());
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_1024());
  const Time period = std::max<Time>(stop / 100, microseconds(1));

  bench::header("Ext. fault plane",
                "graceful degradation under a 3-flap storm (t3_1024)",
                "per-hop backpressure contains a flap's damage: blackholed "
                "packets stay local, rerouted flows keep their pause state "
                "clean, every flow completes, and goodput recovers to its "
                "pre-fault level once the links return");

  ExperimentConfig base = bench::standard_config(Scheme::kBfc, "google",
                                                 0.60, 0.0, stop);
  const Storm storm = make_storm(topo, base.traffic, stop);
  std::printf("storm: %zu transitions, first down at %.1fus, last up at "
              "%.1fus\n\n",
              storm.plan.transitions().size(),
              static_cast<double>(storm.first_down) * 1e-3,
              static_cast<double>(storm.last_up) * 1e-3);

  struct Row {
    const char* name;
    Scheme scheme;
    bool irn;
  };
  const Row rows[] = {
      {"BFC", Scheme::kBfc, false},
      {"DCQCN+Win", Scheme::kDcqcnWin, false},
      {"DCQCN+Win+IRN", Scheme::kDcqcnWin, true},
  };

  // The three schemes are independent points: run_points runs them in
  // parallel and the results are positional, so every printed line and
  // recorded row is byte-identical to a serial run.
  std::vector<ExperimentConfig> cfgs;
  for (const Row& row : rows) {
    ExperimentConfig cfg = bench::standard_config(row.scheme, "google", 0.60,
                                                  0.0, stop);
    if (row.irn) cfg.overrides.retx = RetxMode::kIrn;
    cfg.drain = milliseconds(4);  // room for backoff-parked retries
    cfg.faults = storm.plan;
    cfg.goodput_sample_period = period;
    cfgs.push_back(cfg);
  }
  std::vector<ExperimentResult> results(cfgs.size());
  run_points(cfgs.size(), [&](std::size_t i) {
    results[i] = run_experiment(topo, cfgs[i]);
  });
  std::vector<Recovery> recs;
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].scheme = rows[i].name;
    recs.push_back(analyze(results[i], period, storm));
    const ExperimentResult& r = results[i];
    const Recovery& rec = recs.back();
    std::printf(
        "[%-13s] flows=%llu/%llu blackholed=%lld reroutes=%lld parks=%lld "
        "p99buf=%.2fMB pre=%.1fGbps rec=%.1fGbps rec_lat=%.1fus\n",
        r.scheme.c_str(), static_cast<unsigned long long>(r.flows_completed),
        static_cast<unsigned long long>(r.flows_started),
        static_cast<long long>(r.blackholed),
        static_cast<long long>(r.reroutes),
        static_cast<long long>(r.unreachable_parks), r.buffer_p99_mb,
        rec.prefault_gbps, rec.recovered_gbps, rec.recovery_us);
  }
  std::printf("\np99 FCT slowdown by flow size:\n");
  print_slowdown_table(paper_size_bins(), results);
  bench::maybe_write_csv("ext_fault", results);

  // Graceful-degradation assertions. BFC is held to the hard bar; the
  // comparison schemes only to near-total completion (their recovery is
  // RTO-driven and allowed to be slow, not lossy).
  const ExperimentResult& bfc = results[0];
  const Recovery& bfc_rec = recs[0];
  check(bfc.flows_started > 0, "BFC run started no flows");
  check(bfc.flows_completed == bfc.flows_started,
        "BFC must complete every flow across the storm");
  check(bfc.buffer_p99_mb <= 8.0,
        "BFC p99 buffer must stay bounded through the storm");
  if (bfc_rec.measurable) {
    check(bfc_rec.recovered,
          "BFC goodput must recover to >=60% of pre-fault after last "
          "link-up");
  } else {
    std::printf("(goodput-recovery bar skipped: no pre-fault ticks at this "
                "scale)\n");
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    check(static_cast<double>(r.flows_completed) >=
              0.995 * static_cast<double>(r.flows_started),
          "comparison scheme lost >0.5% of flows to the storm");
  }
  if (bench_scale() >= 0.5) {
    // At real scale the storm demonstrably bites: some packet blackholed,
    // some flow rerouted or parked. (Tiny CI scales may dodge it.)
    check(bfc.blackholed + bfc.reroutes + bfc.unreachable_parks > 0,
          "storm produced no fault activity at full scale");
  }

  // Machine-readable rows for tools/perf_gate.py ("fault" section).
  {
    std::ostringstream body;
    body << "{\n    \"scale\": " << bench_scale()
         << ",\n    \"topo_hosts\": " << topo.num_hosts()
         << ",\n    \"transitions\": " << storm.plan.transitions().size()
         << ",\n    \"rows\": {";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ExperimentResult& r = results[i];
      const Recovery& rec = recs[i];
      body << (i == 0 ? "\n" : ",\n") << "      \"" << r.scheme << "\": {"
           << "\"flows_started\": " << r.flows_started
           << ", \"flows_completed\": " << r.flows_completed
           << ", \"blackholed\": " << r.blackholed
           << ", \"reroutes\": " << r.reroutes
           << ", \"unreachable_parks\": " << r.unreachable_parks
           << ", \"buffer_p99_mb\": " << r.buffer_p99_mb
           << ", \"prefault_gbps\": " << rec.prefault_gbps
           << ", \"recovered_gbps\": " << rec.recovered_gbps
           << ", \"recovery_us\": " << rec.recovery_us << "}";
    }
    body << "\n    },\n    \"headline\": {"
         << "\"bfc_all_complete\": "
         << (bfc.flows_completed == bfc.flows_started ? 1 : 0)
         << ", \"bfc_goodput_recovered\": "
         << (!bfc_rec.measurable || bfc_rec.recovered ? 1 : 0)
         << ", \"bfc_recovery_us\": " << bfc_rec.recovery_us
         << ", \"bfc_blackholed\": " << bfc.blackholed
         << ", \"bfc_buffer_p99_mb\": " << bfc.buffer_p99_mb << "}\n  }";
    bench::update_bench_json("fault", body.str());
  }

  return g_ok ? 0 : 1;
}
