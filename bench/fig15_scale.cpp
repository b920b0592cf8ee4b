// Fig. 15 (extension): simulation-engine scale. Sweeps topology size
// (2-tier T1, 3-tier 1024-host) x shard count and reports events/sec,
// per-shard event counts (partition balance), plus a determinism check:
// every shard count must report byte-identical flow stats at the same
// seed. Emits BENCH_engine.json (see bench_json.hpp) so future PRs can
// diff engine throughput against the recorded baseline.
#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "engine/timing_wheel.hpp"

using namespace bfc;

namespace {

struct ScaleRow {
  std::string topo;
  int shards = 0;
  bool det = true;
  ExperimentResult exp;
  double events_per_sec = 0;
  long peak_rss_kb = 0;  // VmHWM after this row (monotone across rows)
};

ExperimentConfig sweep_config(Time stop) {
  ExperimentConfig cfg =
      bench::standard_config(Scheme::kBfc, "google", 0.35, 0.02, stop);
  cfg.drain = milliseconds(1);
  return cfg;
}

ScaleRow run_one(const char* name, const TopoGraph& topo, int shards,
                 Time stop) {
  ExperimentConfig cfg = sweep_config(stop);
  cfg.shards = shards;
  ScaleRow row;
  row.topo = name;
  row.shards = shards;
  row.exp = run_experiment(topo, cfg);
  row.events_per_sec = row.exp.wall_sec > 0
                           ? static_cast<double>(row.exp.events_processed) /
                                 row.exp.wall_sec
                           : 0;
  row.peak_rss_kb = bench::read_peak_rss_kb();
  return row;
}

bool same_stats(const ExperimentResult& a, const ExperimentResult& b) {
  return a.flows_started == b.flows_started &&
         a.flows_completed == b.flows_completed && a.drops == b.drops &&
         a.bfc.pauses == b.bfc.pauses && a.bfc.resumes == b.bfc.resumes &&
         a.buffer_samples_mb == b.buffer_samples_mb &&
         a.p99_slowdown == b.p99_slowdown;
}

std::string shard_events_str(const ExperimentResult& e) {
  std::ostringstream ss;
  ss << "[";
  for (std::size_t i = 0; i < e.shard_events.size(); ++i) {
    ss << (i > 0 ? "," : "") << e.shard_events[i];
  }
  ss << "]";
  return ss.str();
}

void sweep(const char* name, const TopoGraph& topo, Time stop,
           const std::vector<int>& shard_counts, std::vector<ScaleRow>& all) {
  std::printf("\n[%s] %d hosts, %d nodes, stop=%.0f us\n", name,
              topo.num_hosts(), topo.num_nodes(), to_usec(stop));
  std::printf("%-8s %14s %12s %12s %14s %6s %10s  %s\n", "shards", "events",
              "wall(s)", "Mevents/s", "flows done", "det", "rss(MB)",
              "per-shard events");
  // The sweep's first row is the determinism reference (with the default
  // lists that is the 1-shard run; a BFC_FIG15_SHARDS override may start
  // elsewhere — any point works, determinism is pairwise-transitive).
  const std::size_t base_idx = all.size();
  // Rows are timings: each runs cold and alone, so its events/sec covers
  // one whole run with the machine to itself.
  for (int shards : shard_counts) {
    all.push_back(run_one(name, topo, shards, stop));
  }
  double single_eps = 0, best_multi_eps = 0;
  for (std::size_t k = base_idx; k < all.size(); ++k) {
    ScaleRow& row = all[k];
    const int shards = row.shards;
    if (k != base_idx) {
      row.det = same_stats(all[base_idx].exp, row.exp);
    }
    if (shards == 1) {
      single_eps = row.events_per_sec;
    } else {
      best_multi_eps = std::max(best_multi_eps, row.events_per_sec);
    }
    std::printf("%-8d %14llu %12.3f %12.2f %14llu %6s %10.1f  %s\n", shards,
                static_cast<unsigned long long>(row.exp.events_processed),
                row.exp.wall_sec, row.events_per_sec / 1e6,
                static_cast<unsigned long long>(row.exp.flows_completed),
                row.det ? "yes" : "NO",
                static_cast<double>(row.peak_rss_kb) / 1024.0,
                shard_events_str(row.exp).c_str());
  }
  std::printf("multi-shard speedup over 1 shard: %.2fx\n",
              single_eps > 0 ? best_multi_eps / single_eps : 0);
}

double eps_of(const std::vector<ScaleRow>& rows, const char* topo,
              int shards) {
  for (const ScaleRow& r : rows) {
    if (r.topo == topo && r.shards == shards) return r.events_per_sec;
  }
  return 0;
}

bool det_of(const std::vector<ScaleRow>& rows, const char* topo) {
  for (const ScaleRow& r : rows) {
    if (r.topo == topo && !r.det) return false;
  }
  return true;
}

void write_json(const std::vector<ScaleRow>& rows) {
  std::ostringstream body;
  body.precision(6);
  body << std::fixed;
  body << "{\n    \"bench\": \"fig15_scale\",\n    \"scale\": "
       << bench_scale() << ",\n    \"event_bytes\": " << sizeof(Event)
       << ",\n    \"wheel\": {\"slot_ns\": " << TimingWheel::kSlotNs
       << ", \"slots\": " << TimingWheel::kSlots
       << ", \"horizon_ns\": " << TimingWheel::kHorizonNs << "},\n";
  body << "    \"topos\": {";
  std::vector<std::string> topo_names;
  for (const ScaleRow& r : rows) {
    if (std::find(topo_names.begin(), topo_names.end(), r.topo) ==
        topo_names.end()) {
      topo_names.push_back(r.topo);
    }
  }
  bool first_topo = true;
  for (const std::string& topo : topo_names) {
    body << (first_topo ? "" : ", ") << "\"" << topo
         << "\": {\"shards1_events_per_sec\": "
         << static_cast<long long>(eps_of(rows, topo.c_str(), 1));
    // Multi-shard columns appear whenever the sweep ran them, so the
    // perf gate can hold the channel-clock scaling path to the same
    // tolerance band as single-shard throughput.
    for (const int s : {8, 16}) {
      const double eps = eps_of(rows, topo.c_str(), s);
      if (eps > 0) {
        body << ", \"shards" << s << "_events_per_sec\": "
             << static_cast<long long>(eps);
      }
    }
    body << ", \"deterministic\": "
         << (det_of(rows, topo.c_str()) ? "true" : "false") << "}";
    first_topo = false;
  }
  body << "},\n    \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    body << "      {\"topo\": \"" << r.topo << "\", \"shards\": " << r.shards
         << ", \"events\": " << r.exp.events_processed
         << ", \"wall_sec\": " << r.exp.wall_sec
         << ", \"events_per_sec\": "
         << static_cast<long long>(r.events_per_sec) << ", \"det\": "
         << (r.det ? "true" : "false") << ", \"events_stolen\": "
         << r.exp.events_stolen << ", \"peak_rss_kb\": "
         << r.peak_rss_kb
         // Telemetry rollups (BFC_METRICS registry; main() turns it on so
         // the det column continuously proves metrics never perturb the
         // simulation). Scheduling-dependent — diff with care.
         << ", \"clock_waits\": " << r.exp.clock_waits
         << ", \"clock_wait_us\": "
         << static_cast<long long>(r.exp.clock_wait_ns / 1000)
         << ", \"steal_batches\": " << r.exp.steal_batches
         << ", \"ring_flush_events\": " << r.exp.ring_flush_events
         << ", \"wheel_hw\": " << (r.exp.wheel_near_hw + r.exp.wheel_far_hw)
         << ", \"inbox_hw\": " << r.exp.inbox_occ_hw
         // Device high-water marks: deterministic, always on.
         << ", \"ports_hw\": "
         << (r.exp.egress_ports_hw + r.exp.ingress_ports_hw)
         << ", \"slab_hw\": " << r.exp.receiver_slots_hw
         << ", \"shard_events\": "
         << shard_events_str(r.exp) << "}" << (i + 1 < rows.size() ? "," : "")
         << "\n";
  }
  body << "    ]\n  }";

  // First ever run on a tree with no recorded baseline: this run becomes
  // the baseline future PRs diff against.
  std::ostringstream base;
  base.precision(6);
  base << std::fixed;
  base << "{\"source\": \"self\", \"scale\": " << bench_scale()
       << ", \"event_bytes\": " << sizeof(Event)
       << ", \"t1_128_events_per_sec\": "
       << static_cast<long long>(eps_of(rows, "t1_128", 1))
       << ", \"t3_1024_events_per_sec\": "
       << static_cast<long long>(eps_of(rows, "t3_1024", 1)) << "}";

  bench::update_bench_json("engine", body.str(), base.str());
}

}  // namespace

// Every fabric main() can sweep, in sweep order.
constexpr const char* kTopoNames[] = {"t1_128", "t3_1024", "t3_4096",
                                      "t3_16384", "t3_65536"};

// BFC_FIG15_TOPOS selects which fabrics to sweep (comma-separated names);
// the default runs every default-on fabric. The 16384- and 65536-host
// presets are opt-in (`default_on=false`): their sweeps are sized for the
// Release perf job and would blow the sanitizer legs' budget, so they
// only run when the env var names them explicitly. An unknown name
// fails the run — a typo must not silently sweep nothing.
bool topo_selected(const char* name, bool default_on = true) {
  const char* env = std::getenv("BFC_FIG15_TOPOS");
  if (env == nullptr || *env == '\0') return default_on;
  const std::string list(env);
  bool hit = false;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    const std::string item = list.substr(pos, end - pos);
    if (std::find(std::begin(kTopoNames), std::end(kTopoNames), item) ==
        std::end(kTopoNames)) {
      std::fprintf(stderr,
                   "fig15_scale: BFC_FIG15_TOPOS='%s' names unknown fabric "
                   "'%s'; valid names:", env, item.c_str());
      for (const char* t : kTopoNames) std::fprintf(stderr, " %s", t);
      std::fprintf(stderr, "\n");
      // exit, not abort: ctest's WILL_FAIL only inverts a nonzero exit.
      std::exit(2);
    }
    if (item == name) hit = true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return hit;
}

// BFC_FIG15_SHARDS overrides the shard-count lists (comma-separated,
// e.g. "1,4" — or just "4" for a single traced point); the first entry
// becomes the determinism reference. Malformed values abort, same
// convention as every other knob.
std::vector<int> shard_list_override(const std::vector<int>& fallback) {
  const char* env = std::getenv("BFC_FIG15_SHARDS");
  if (env == nullptr || *env == '\0') return fallback;
  std::vector<int> out;
  const std::string list(env);
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    char* stop = nullptr;
    const long v = std::strtol(list.c_str() + pos, &stop, 10);
    if (stop != list.c_str() + end || v < 1 || v > 256) {
      std::fprintf(stderr,
                   "fig15_scale: BFC_FIG15_SHARDS='%s' is not a comma list "
                   "of shard counts in [1,256]\n", env);
      std::abort();
    }
    out.push_back(static_cast<int>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int main() {
  // Run the metrics registry by default: the determinism column then
  // continuously proves telemetry never perturbs the simulation. An
  // explicit BFC_METRICS=0 in the environment still wins (overwrite=0).
  setenv("BFC_METRICS", "1", 0);
  bench::header("Fig. 15", "engine throughput vs fabric size x shard count",
                "multi-shard events/sec exceeds single-shard on the "
                "full-scale (3-tier, 1024+-host) workloads, and every "
                "shard count reports bit-identical stats at the same seed");
  // T1 (128 hosts) is the small reference: sync overhead can eat the
  // parallel win there. The 3-tier 1024/4096/16384-host fabrics are the
  // scale targets; the bigger presets run shorter sim windows so the full
  // sweep stays tractable at scale 1. t3_16384 — opened by lazy switch
  // state and on-demand routing — is opt-in via BFC_FIG15_TOPOS.
  const Time t1_stop = static_cast<Time>(microseconds(400) * bench_scale());
  const Time t3_stop = static_cast<Time>(microseconds(300) * bench_scale());
  const Time t3x_stop = static_cast<Time>(microseconds(120) * bench_scale());
  const Time t3xx_stop = static_cast<Time>(microseconds(60) * bench_scale());
  const Time t3m_stop = static_cast<Time>(microseconds(30) * bench_scale());
  std::vector<ScaleRow> rows;
  // Small fabrics sweep to 8 shards; the 4096/16384-host presets add a
  // 16-shard point (their partitions have the pods to feed it).
  const std::vector<int> small_counts = shard_list_override({1, 2, 4, 8});
  const std::vector<int> big_counts = shard_list_override({1, 2, 4, 8, 16});
  if (topo_selected("t1_128")) {
    sweep("t1_128", TopoGraph::fat_tree(FatTreeConfig::t1()), t1_stop,
          small_counts, rows);
  }
  if (topo_selected("t3_1024")) {
    sweep("t3_1024", TopoGraph::three_tier(ThreeTierConfig::t3_1024()),
          t3_stop, small_counts, rows);
  }
  if (topo_selected("t3_4096")) {
    sweep("t3_4096", TopoGraph::three_tier(ThreeTierConfig::t3_4096()),
          t3x_stop, big_counts, rows);
  }
  if (topo_selected("t3_16384", /*default_on=*/false)) {
    sweep("t3_16384", TopoGraph::three_tier(ThreeTierConfig::t3_16384()),
          t3xx_stop, big_counts, rows);
  }
  // The 65536-host preset — opened by the PR 7 memory diet (streaming
  // traffic, lazy sender slabs, packed route ids) — is likewise opt-in,
  // and also needs a machine with ~6 GB free (the CI smoke probes
  // MemAvailable before naming it).
  if (topo_selected("t3_65536", /*default_on=*/false)) {
    sweep("t3_65536", TopoGraph::three_tier(ThreeTierConfig::t3_65536()),
          t3m_stop, shard_list_override({1, 2, 4}), rows);
  }
  write_json(rows);
  // Determinism is a hard property, not a column: a sweep whose shard
  // counts disagree fails the binary (and with it every smoke/CI leg
  // that runs it, not only the gated perf job).
  for (const ScaleRow& r : rows) {
    if (!r.det) {
      std::fprintf(stderr, "fig15_scale: %s shards=%d is NOT deterministic\n",
                   r.topo.c_str(), r.shards);
      return 1;
    }
  }
  return 0;
}
