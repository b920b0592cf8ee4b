// The experiment harness: one call = one simulated run with the standard
// measurement set (FCT slowdown by size bin, buffers, PFC, collisions).
//
// run_experiment is a thin wrapper over ExperimentRun, which additionally
// supports pausing at a checkpoint (core/snapshot.hpp) and warm-starting
// an identically-configured run from one. run_points fans a batch of
// independent points out over worker threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "obs/flight_recorder.hpp"
#include "stats/percentile.hpp"
#include "stats/samplers.hpp"
#include "workload/traffic_gen.hpp"

namespace bfc {

// BFC_BENCH_SCALE (default 1.0) multiplies every bench's simulated
// duration; CI smoke runs set it to ~0.05.
double bench_scale();

// Engine shard count for run_experiment when ExperimentConfig::shards is 0:
// the BFC_SHARDS env var, default 1.
int default_shards();

// A flow-size histogram bin: holds the FCT slowdowns of completed flows
// with bytes <= hi_bytes (and above the previous bin's edge).
struct SizeBin {
  std::uint64_t hi_bytes = 0;
  std::vector<double> slowdowns;
};

// The paper's half-decade size bins (281 B ... 28 MB, plus a catch-all).
std::vector<SizeBin> paper_size_bins();

// Buckets every completed, non-incast flow of `stats` into `bins` with
// slowdown = FCT / ideal FCT. Call stats.apply_tags() first.
void fill_slowdowns(const FlowStats& stats, const Network::IdealFctFn& ideal,
                    std::vector<SizeBin>& bins);

// Per-bin percentile of the slowdown samples (0 for empty bins).
std::vector<double> bin_percentiles(const std::vector<SizeBin>& bins,
                                    double p);

struct ExperimentConfig {
  Scheme scheme = Scheme::kBfc;
  TrafficConfig traffic;
  NetworkOverrides overrides;
  Time drain = milliseconds(2);  // run past traffic.stop for completions
  Time buffer_sample_period = microseconds(10);
  int shards = 0;  // engine shards; 0 = BFC_SHARDS env (default 1)
  // Fault plane: link flaps / node failures injected as pre-seeded engine
  // events (core/fault.hpp). Installed right after Network construction;
  // an empty plan is a no-op. The config (and thus the plan) must outlive
  // the run — run_experiment takes it by reference.
  FaultPlan faults;
  // Goodput time series: when > 0, samples cumulative delivered payload
  // bytes (summed over NICs) every period — the graceful-degradation
  // benches derive goodput-vs-time and recovery latency from it.
  Time goodput_sample_period = 0;
  // Arrivals are streamed: each host-owning shard replays the generator
  // lazily, one gen_window at a time, and activates only its own sources
  // — O(shards) generator state instead of a materialized arrival vector
  // (the term that dominated harness RSS at 16k+ hosts). A window of at
  // least traffic.stop emits the whole trace at setup.
  Time gen_window = microseconds(50);
};

struct ExperimentResult {
  std::string scheme;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::int64_t drops = 0;
  std::vector<double> buffer_samples_mb;  // per-switch occupancy samples
  double buffer_p99_mb = 0;
  double pfc_frac_tor_to_spine = 0;
  double pfc_frac_spine_to_tor = 0;
  double collision_frac = 0;
  std::vector<SizeBin> bins;
  std::vector<double> p99_slowdown;  // per bin
  BfcTotals bfc;
  // Ack-uplink arbitration telemetry (nonzero only under acks_in_data):
  // acks that rode the data-path pacer, and how many found the uplink
  // busy/paused and had to wait (ext_timely asserts both engage).
  std::int64_t acks_data_path = 0;
  std::int64_t acks_deferred = 0;
  // Fault-plane rollups (deterministic device counters, zero without a
  // FaultPlan): packets destroyed by dead links, send-path re-resolves
  // that moved a flow, and sends parked with no surviving path.
  std::int64_t blackholed = 0;
  std::int64_t reroutes = 0;
  std::int64_t unreachable_parks = 0;
  // Cumulative delivered payload bytes at each goodput_sample_period
  // tick (empty when the period is 0); deterministic at any shard count.
  std::vector<std::int64_t> goodput_bytes;
  // Engine telemetry (fig15_scale): how much work the run was, how fast
  // the engine chewed through it, and how evenly the partition spread it
  // (per-shard event counts expose placement imbalance).
  int shards = 1;
  std::uint64_t events_processed = 0;
  std::vector<std::uint64_t> shard_events;  // events run per shard
  double wall_sec = 0;
  // Sync-protocol telemetry: events_stolen / inbox_overflows describe
  // scheduling, not simulation, so determinism checks must NOT compare
  // them (they legitimately vary run to run under work stealing).
  std::uint64_t events_stolen = 0;
  std::uint64_t inbox_overflows = 0;
  // Engine telemetry rollups (BFC_METRICS / BFC_TRACE; all zero when the
  // registry is off). Like events_stolen these describe *scheduling*, not
  // simulation — determinism checks must not compare them.
  std::uint64_t clock_waits = 0;        // channel-clock blocks entered
  std::uint64_t clock_wait_ns = 0;      // sim-time ns spent blocked
  std::uint64_t clock_advances = 0;     // published clock bumps
  std::uint64_t ring_flush_events = 0;  // events drained via overflow rings
  std::uint64_t steal_batches = 0;      // batches offered to the board
  std::uint64_t steal_batches_stolen = 0;
  std::uint64_t wheel_near_hw = 0;      // epoch-sampled high-water marks
  std::uint64_t wheel_far_hw = 0;
  std::uint64_t inbox_occ_hw = 0;
  std::uint64_t arena_blocks_hw = 0;    // event pool + packet arenas
  // Device rollups — pure functions of the simulation, deterministic at
  // any shard count, always on (no knob).
  std::uint64_t egress_ports_hw = 0;    // summed over switches
  std::uint64_t ingress_ports_hw = 0;
  std::uint64_t reclaim_sweeps = 0;
  std::uint64_t reclaimed_ports = 0;
  std::uint64_t table_chunks = 0;       // FlowTable chunks materialized
  std::uint64_t receiver_slots_hw = 0;  // summed over NICs
  std::uint64_t nic_class_transitions = 0;
  // Flight recorder (BFC_FLIGHT>0): per-shard rings of the last N
  // (at, key) pairs executed, for replaying determinism-fuzz failures.
  std::vector<std::vector<obs::FlightRec>> flight;
};

ExperimentResult run_experiment(const TopoGraph& topo,
                                const ExperimentConfig& cfg);

// Runs point(0) .. point(n-1), each an independent simulation, on
// min(n, hardware_concurrency, 8) threads — inline and in order when that
// is 1 (the benches are memory-bound well before 8). point(i) must write
// only its own result slot, so the caller's results are in input order
// and byte-identical to a serial loop whatever the schedule. Under
// BFC_TRACE each point exports its own trace, `<stem>.p<i><ext>` of the
// BFC_TRACE_OUT path.
void run_points(std::size_t n, const std::function<void(std::size_t)>& point);

// Everything a warm start needs beyond the Snapshot image: the samplers
// are harness-owned closures (deliberately not serialized), so the series
// they recorded up to the checkpoint ride along as plain prefixes.
struct WarmCheckpoint {
  Time at = 0;
  std::vector<std::uint8_t> image;
  // Per-switch buffer-occupancy samples for ticks <= at (MB).
  std::vector<std::vector<double>> buffer_prefix;
  // Per-tick delivered-payload totals (already summed over shards, so the
  // prefix is meaningful at any restore-side shard count).
  std::vector<std::int64_t> goodput_prefix;
  // Generator window the checkpoint was taken under. The restore side
  // must match, or the stream fast-forward would desync from the pumps
  // the image already ran.
  Time gen_window = 0;
};

// One experiment as a resident object: construction does everything
// run_experiment did before the clock started (build engine + network,
// install faults, prepare the flow trace, pre-seed the samplers); run_to
// advances simulated time; collect() assembles the standard result.
//
// checkpoint() pauses the run into a WarmCheckpoint; restore() builds a
// new run that continues from one — bit-identical to a run that never
// paused, at any shard count.
class ExperimentRun {
 public:
  ExperimentRun(const TopoGraph& topo, const ExperimentConfig& cfg);
  ExperimentRun(const ExperimentRun&) = delete;
  ExperimentRun& operator=(const ExperimentRun&) = delete;

  // Warm start: fresh engine/network at cfg.shards, state from cp. The
  // config must describe the same experiment the checkpoint was taken
  // from (snapshot fingerprint enforces it); only the shard count may
  // differ. Returns nullptr and sets *error on mismatch.
  static std::unique_ptr<ExperimentRun> restore(const TopoGraph& topo,
                                                const ExperimentConfig& cfg,
                                                const WarmCheckpoint& cp,
                                                std::string* error = nullptr);

  Time horizon() const { return horizon_; }
  Time now() const { return cursor_; }

  // Advances the run to simulated time `t` (monotonic; engine wall time
  // accumulates into the eventual result's wall_sec).
  void run_to(Time t);

  // Pauses the run at its current time into a restorable checkpoint.
  WarmCheckpoint checkpoint();

  // Finishes the run (run_to(horizon()) if short) and assembles the
  // measurement set. Call once.
  ExperimentResult collect();

 private:
  ExperimentRun(const TopoGraph& topo, const ExperimentConfig& cfg,
                bool warm);
  // Pre-seeds the buffer/goodput sampler closures for every tick strictly
  // after `resume_after` (pass -1 to seed from t=0). The relative posting
  // order (all buffer ticks, then all goodput ticks, then the streaming
  // pump) is part of the determinism contract — it fixes the env-entity
  // event order.
  void seed_samplers(Time resume_after);
  // Streaming pump, run as a shard-s closure at window boundary `b`:
  // advances that shard's generator replica to min(b + gen_window_, stop),
  // activates the arrivals it owns, and re-posts itself for the next
  // window while any trace remains.
  void pump(int s, Time b);

  const TopoGraph& topo_;
  ExperimentConfig cfg_;
  FaultPlan faults_;  // resolved plan; outlives net_ (declared before it)
  int shards_ = 1;
  Time gen_window_ = 1;
  Time horizon_ = 0;
  Time period_ = 1;
  Time cursor_ = 0;
  double wall_sec_ = 0;
  std::unique_ptr<ShardedSimulator> sim_;
  std::unique_ptr<Network> net_;
  // Sampler sinks; sized at construction, never resized (closures keep
  // pointers to the inner vectors).
  std::vector<std::vector<double>> series_;              // per switch
  std::vector<std::vector<std::int64_t>> gseries_;       // per shard
  std::vector<std::int64_t> goodput_prefix_;             // warm runs only
  // One generator replica per host-owning shard (null elsewhere). Each
  // replica replays the full trace and filters to its shard's sources, so
  // the per-source arrival order — and thus every minted event key — is
  // the same at any shard count and any gen_window.
  std::vector<std::unique_ptr<ArrivalStream>> streams_;
};

}  // namespace bfc
