#include "harness/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bfc {

namespace {

// Index of the run_points point this thread is running (-1 outside
// run_points): it names that point's trace export.
thread_local long tl_point = -1;

// The trace export path: BFC_TRACE_OUT (default bfc_trace.json), and
// under run_points `<stem>.p<i><ext>` so concurrent points never
// overwrite each other's traces.
std::string trace_out_path() {
  const char* env = std::getenv("BFC_TRACE_OUT");
  const std::string out =
      env == nullptr || *env == '\0' ? "bfc_trace.json" : env;
  if (tl_point < 0) return out;
  const std::size_t slash = out.find_last_of('/');
  const std::size_t base = slash == std::string::npos ? 0 : slash + 1;
  std::size_t cut = out.find_last_of('.');
  if (cut == std::string::npos || cut <= base) cut = out.size();
  return out.substr(0, cut) + ".p" + std::to_string(tl_point) +
         out.substr(cut);
}

}  // namespace

double bench_scale() {
  static const double scale = [] {
    const char* env = std::getenv("BFC_BENCH_SCALE");
    if (env == nullptr || *env == '\0') return 1.0;
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end == env || *end != '\0') {
      // Same convention as SizeDist::by_name: a typo must not silently
      // become a (wildly different) default.
      std::fprintf(stderr, "bench_scale: BFC_BENCH_SCALE='%s' is not a "
                           "number\n", env);
      std::abort();
    }
    if (v < 0.001) return 0.001;
    if (v > 100.0) return 100.0;
    return v;
  }();
  return scale;
}

int default_shards() {
  static const int shards = [] {
    const char* env = std::getenv("BFC_SHARDS");
    if (env == nullptr || *env == '\0') return 1;
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0') {
      // Same convention as bench_scale: a typo must not silently become a
      // different experiment.
      std::fprintf(stderr, "default_shards: BFC_SHARDS='%s' is not an "
                           "integer\n", env);
      std::abort();
    }
    if (v < 1) return 1;
    if (v > 256) return 256;
    return static_cast<int>(v);
  }();
  return shards;
}

std::vector<SizeBin> paper_size_bins() {
  // Half-decade edges starting at 10^2.45 — the short-flow band the paper
  // plots ends at ~2.8 KB.
  static const std::uint64_t edges[] = {
      281,       889,       2'812,      8'891,      28'117,
      88'914,    281'171,   889'140,    2'811'707,  8'891'397,
      28'117'066, ~std::uint64_t{0}};
  std::vector<SizeBin> bins;
  for (const std::uint64_t hi : edges) {
    SizeBin b;
    b.hi_bytes = hi;
    bins.push_back(std::move(b));
  }
  return bins;
}

void fill_slowdowns(const FlowStats& stats, const Network::IdealFctFn& ideal,
                    std::vector<SizeBin>& bins) {
  for (const auto& [uid, r] : stats.records()) {
    (void)uid;
    if (!r.completed() || r.incast) continue;
    const Time want = ideal(r.key, r.bytes);
    const double slow =
        static_cast<double>(r.end - r.start) / static_cast<double>(want);
    for (SizeBin& b : bins) {
      if (r.bytes <= b.hi_bytes) {
        b.slowdowns.push_back(slow < 1 ? 1 : slow);
        break;
      }
    }
  }
}

std::vector<double> bin_percentiles(const std::vector<SizeBin>& bins,
                                    double p) {
  std::vector<double> out;
  out.reserve(bins.size());
  for (const SizeBin& b : bins) out.push_back(percentile(b.slowdowns, p));
  return out;
}

ExperimentRun::ExperimentRun(const TopoGraph& topo,
                             const ExperimentConfig& cfg)
    : ExperimentRun(topo, cfg, /*warm=*/false) {}

ExperimentRun::ExperimentRun(const TopoGraph& topo,
                             const ExperimentConfig& cfg, bool warm)
    : topo_(topo), cfg_(cfg) {
  shards_ = cfg_.shards > 0 ? cfg_.shards : default_shards();
  horizon_ = cfg_.traffic.stop + cfg_.drain;
  period_ = cfg_.buffer_sample_period < 1 ? 1 : cfg_.buffer_sample_period;
  gen_window_ = cfg_.gen_window < 1 ? 1 : cfg_.gen_window;
  // Resolve the fault schedule into a member (Network keeps a pointer, so
  // it must outlive net_): the scripted plan when given, else the
  // BFC_FAULT_* env knobs (empty when unset) — any bench can be stormed
  // without a rebuild.
  faults_ = cfg_.faults.empty()
                ? FaultPlan::from_env(topo_, cfg_.traffic.stop)
                : cfg_.faults;
  sim_ = std::make_unique<ShardedSimulator>(topo_, shards_);
  net_ = std::make_unique<Network>(*sim_, topo_, cfg_.scheme,
                                   cfg_.overrides);
  series_.resize(net_->switches().size());
  gseries_.resize(static_cast<std::size_t>(sim_->n_shards()));
  if (warm) {
    // Restore path: the snapshot image carries the pending fault
    // transition events, so only adopt the schedule; flows, samplers and
    // the cursor come from ExperimentRun::restore.
    net_->adopt_faults(faults_);
    return;
  }
  // Fault schedule first: the pre-seeded link-state events consume
  // per-entity sequence numbers, so their position in the setup order is
  // part of the determinism contract (always before flow preparation).
  net_->install_faults(faults_);
  // One generator replica per host-owning shard. The first window is
  // emitted inline here, right after the faults, so its flow-start events
  // take the first setup-space sequence numbers; the rest is pulled
  // window-by-window by shard-pinned pump closures.
  const Time stop = cfg_.traffic.stop;
  streams_.resize(static_cast<std::size_t>(sim_->n_shards()));
  for (int s = 0; s < sim_->n_shards(); ++s) {
    bool owns_host = false;
    for (const Nic* nic : net_->nics()) {
      if (sim_->shard_of(nic->id()) == s) { owns_host = true; break; }
    }
    if (!owns_host) continue;
    auto& stream = streams_[static_cast<std::size_t>(s)];
    stream = std::make_unique<ArrivalStream>(topo_, cfg_.traffic);
    stream->advance(std::min(gen_window_, stop),
                    [this, s](const FlowArrival& a) {
                      if (sim_->shard_of(static_cast<int>(a.key.src)) == s) {
                        net_->stream_flow(a.key, a.bytes, a.uid, a.incast,
                                          a.at);
                      }
                    });
  }
  seed_samplers(/*resume_after=*/-1);
  if (gen_window_ < stop) {
    // Pump closures post after the samplers: at a shared tick the env
    // order is buffer, goodput, pump — in the restore path too.
    for (int s = 0; s < sim_->n_shards(); ++s) {
      if (streams_[static_cast<std::size_t>(s)] == nullptr) continue;
      const Time b = gen_window_;
      sim_->shard(s).post_closure(b, [this, s, b] { pump(s, b); });
    }
  }
}

void ExperimentRun::pump(int s, Time b) {
  const Time stop = cfg_.traffic.stop;
  const Time upto = std::min(b + gen_window_, stop);
  streams_[static_cast<std::size_t>(s)]->advance(
      upto, [this, s](const FlowArrival& a) {
        if (sim_->shard_of(static_cast<int>(a.key.src)) == s) {
          net_->stream_flow(a.key, a.bytes, a.uid, a.incast, a.at);
        }
      });
  if (upto < stop) {
    const Time nb = b + gen_window_;
    sim_->shard(s).post_closure(nb, [this, s, nb] { pump(s, nb); });
  }
}

void ExperimentRun::seed_samplers(Time resume_after) {
  // Shard-local buffer sampling: each switch's occupancy series is written
  // only by its owning shard; ticks are pre-seeded so no closure ever
  // reschedules across shards. The series are reassembled in collect() in
  // the legacy (tick-major, switch-order) layout, which is also identical
  // for every shard count. Warm starts pass the checkpoint time: sampler
  // closures are not serialized, so ticks strictly after it are re-posted
  // here in the exact relative order of a cold run.
  const Time b0 =
      resume_after < 0 ? 0 : (resume_after / period_ + 1) * period_;
  const auto& sws = net_->switches();
  for (int s = 0; s < sim_->n_shards(); ++s) {
    std::vector<std::pair<std::size_t, const Switch*>> mine;
    for (std::size_t i = 0; i < sws.size(); ++i) {
      if (sim_->shard_of(sws[i]->id()) == s) mine.emplace_back(i, sws[i]);
    }
    if (mine.empty()) continue;
    auto* series = &series_;
    for (Time t = b0; t <= horizon_; t += period_) {
      sim_->shard(s).post_closure(t, [series, mine] {
        for (const auto& [i, sw] : mine) {
          (*series)[i].push_back(
              static_cast<double>(sw->buffer_used()) / 1e6);
        }
      });
    }
  }

  // Goodput sampling, same shard-local pattern: each shard records the
  // cumulative delivered payload of its own NICs per tick; collect() sums
  // the per-tick totals over shards, which is shard-count independent.
  if (cfg_.goodput_sample_period > 0) {
    const Time gp = cfg_.goodput_sample_period;
    const Time g0 = resume_after < 0 ? 0 : (resume_after / gp + 1) * gp;
    const auto& nics = net_->nics();
    for (int s = 0; s < sim_->n_shards(); ++s) {
      std::vector<const Nic*> mine;
      for (const Nic* nic : nics) {
        if (sim_->shard_of(nic->id()) == s) mine.push_back(nic);
      }
      if (mine.empty()) continue;
      auto* out = &gseries_[static_cast<std::size_t>(s)];
      for (Time t = g0; t <= horizon_; t += gp) {
        sim_->shard(s).post_closure(t, [out, mine] {
          std::int64_t sum = 0;
          for (const Nic* nic : mine) sum += nic->stats().delivered_payload;
          out->push_back(sum);
        });
      }
    }
  }
}

std::unique_ptr<ExperimentRun> ExperimentRun::restore(
    const TopoGraph& topo, const ExperimentConfig& cfg,
    const WarmCheckpoint& cp, std::string* error) {
  std::unique_ptr<ExperimentRun> run(
      new ExperimentRun(topo, cfg, /*warm=*/true));
  if (!Snapshot::restore(*run->sim_, *run->net_, cp.image, error)) {
    return nullptr;
  }
  run->cursor_ = cp.at;
  if (cp.gen_window != run->gen_window_) {
    if (error != nullptr) {
      *error = "checkpoint gen_window does not match the restore config";
    }
    return nullptr;
  }
  if (cp.buffer_prefix.size() != run->series_.size()) {
    if (error != nullptr) {
      *error = "checkpoint buffer-series prefix does not match the "
               "topology's switch count";
    }
    return nullptr;
  }
  run->series_ = cp.buffer_prefix;
  run->goodput_prefix_ = cp.goodput_prefix;
  run->seed_samplers(cp.at);
  // The closure (environment) events that already ticked by cp.at were
  // dropped from the image (not node-attributable); re-credit each
  // restored shard with the count it would have executed, so the
  // reported per-shard event totals stay bit-identical to an unbroken
  // run at this shard count. A shard executed one buffer tick per period
  // in [0, at] iff it owns at least one switch, and likewise one goodput
  // tick iff it owns a NIC.
  const std::uint64_t buffer_ticks =
      static_cast<std::uint64_t>(cp.at / run->period_) + 1;
  const std::uint64_t goodput_ticks =
      cfg.goodput_sample_period > 0
          ? static_cast<std::uint64_t>(cp.at / cfg.goodput_sample_period) + 1
          : 0;
  // Streaming pump ticks executed by cp.at on each host-owning shard:
  // pumps sit at k*gen_window for k >= 1 while k*gen_window < stop.
  const Time stop = cfg.traffic.stop;
  const std::uint64_t ran =
      static_cast<std::uint64_t>(cp.at / run->gen_window_);
  const Time last = stop - 1;  // largest boundary strictly before stop
  const std::uint64_t exist =
      last >= run->gen_window_
          ? static_cast<std::uint64_t>(last / run->gen_window_)
          : 0;
  const std::uint64_t pump_ticks = std::min(ran, exist);
  for (int s = 0; s < run->sim_->n_shards(); ++s) {
    bool owns_switch = false;
    for (const Switch* sw : run->net_->switches()) {
      if (run->sim_->shard_of(sw->id()) == s) { owns_switch = true; break; }
    }
    bool owns_nic = false;
    if (goodput_ticks > 0 || pump_ticks > 0) {
      for (const Nic* nic : run->net_->nics()) {
        if (run->sim_->shard_of(nic->id()) == s) { owns_nic = true; break; }
      }
    }
    const std::uint64_t credit = (owns_switch ? buffer_ticks : 0) +
                                 (owns_nic ? goodput_ticks + pump_ticks : 0);
    if (credit > 0) run->sim_->credit_closure_events(s, credit);
  }
  // Fast-forward the streaming generators over the already-covered trace
  // prefix: flows with arrival <= C are in the image (as live state or
  // pending ev_flow_start events), so the regenerated arrivals are
  // discarded. C is the coverage invariant of the pump cadence: the pump
  // at floor(cp.at/H)*H (or the ctor's inline window) already emitted
  // through the *next* boundary, clamped to stop.
  const Time b_next = (cp.at / run->gen_window_ + 1) * run->gen_window_;
  const Time covered = std::min(b_next, stop);
  run->streams_.resize(static_cast<std::size_t>(run->sim_->n_shards()));
  for (int s = 0; s < run->sim_->n_shards(); ++s) {
    bool owns_host = false;
    for (const Nic* nic : run->net_->nics()) {
      if (run->sim_->shard_of(nic->id()) == s) { owns_host = true; break; }
    }
    if (!owns_host) continue;
    auto& stream = run->streams_[static_cast<std::size_t>(s)];
    stream = std::make_unique<ArrivalStream>(run->topo_, cfg.traffic);
    stream->advance(covered, /*sink=*/nullptr);
    if (covered < stop) {
      ExperimentRun* rp = run.get();
      run->sim_->shard(s).post_closure(
          b_next, [rp, s, b_next] { rp->pump(s, b_next); });
    }
  }
  return run;
}

void ExperimentRun::run_to(Time t) {
  if (t <= cursor_) return;
  const auto wall0 = std::chrono::steady_clock::now();
  sim_->run_until(t);
  wall_sec_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  cursor_ = t;
}

WarmCheckpoint ExperimentRun::checkpoint() {
  WarmCheckpoint cp;
  cp.at = cursor_;
  cp.image = Snapshot::save(*sim_, *net_, cursor_);
  cp.buffer_prefix = series_;
  cp.gen_window = gen_window_;
  // Fold the per-shard goodput series into per-tick totals so the prefix
  // is meaningful at any restore-side shard count.
  if (cfg_.goodput_sample_period > 0) {
    std::size_t g_ticks = ~std::size_t{0};
    for (const auto& gs : gseries_) {
      if (!gs.empty()) g_ticks = std::min(g_ticks, gs.size());
    }
    if (g_ticks == ~std::size_t{0}) g_ticks = 0;
    cp.goodput_prefix = goodput_prefix_;
    cp.goodput_prefix.resize(cp.goodput_prefix.size() + g_ticks, 0);
    const std::size_t base = cp.goodput_prefix.size() - g_ticks;
    for (const auto& gs : gseries_) {
      if (gs.empty()) continue;
      for (std::size_t t = 0; t < g_ticks; ++t) {
        cp.goodput_prefix[base + t] += gs[t];
      }
    }
    // Adopt the folded totals ourselves so this run stays collectable if
    // it keeps going past the checkpoint (the live closures append to the
    // now-emptied per-shard vectors, whose addresses are unchanged).
    goodput_prefix_ = cp.goodput_prefix;
    for (auto& gs : gseries_) gs.clear();
  }
  return cp;
}

ExperimentResult ExperimentRun::collect() {
  run_to(horizon_);
  net_->flow_stats().apply_tags();
  ShardedSimulator& sim = *sim_;
  Network& net = *net_;
  ExperimentResult r;
  r.scheme = scheme_name(cfg_.scheme);
  r.flows_started = net.flow_stats().started();
  r.flows_completed = net.flow_stats().completed();
  r.drops = net.switch_totals().drops;
  std::size_t n_ticks = series_.empty() ? 0 : series_[0].size();
  for (const auto& sseries : series_) {
    n_ticks = std::min(n_ticks, sseries.size());
  }
  r.buffer_samples_mb.reserve(n_ticks * series_.size());
  for (std::size_t t = 0; t < n_ticks; ++t) {
    for (const auto& sseries : series_) {
      r.buffer_samples_mb.push_back(sseries[t]);
    }
  }
  r.buffer_p99_mb = percentile(r.buffer_samples_mb, 99);
  const Network::PfcFractions pfc = net.pfc_fractions(horizon_);
  r.pfc_frac_tor_to_spine = pfc.tor_to_spine;
  r.pfc_frac_spine_to_tor = pfc.spine_to_tor;
  r.collision_frac = net.collision_frac();
  r.bins = paper_size_bins();
  fill_slowdowns(net.flow_stats(), net.ideal_fct_fn(), r.bins);
  r.p99_slowdown = bin_percentiles(r.bins, 99);
  r.bfc = net.bfc_totals();
  const NicStats nt = net.nic_totals();
  r.acks_data_path = nt.acks_data_path;
  r.acks_deferred = nt.acks_deferred;
  r.blackholed = net.switch_totals().blackholed + nt.blackholed;
  r.reroutes = nt.reroutes;
  r.unreachable_parks = nt.unreachable_parks;
  if (cfg_.goodput_sample_period > 0) {
    std::size_t g_ticks = ~std::size_t{0};
    for (const auto& gs : gseries_) {
      if (!gs.empty()) g_ticks = std::min(g_ticks, gs.size());
    }
    if (g_ticks == ~std::size_t{0}) g_ticks = 0;
    // Warm runs prepend the checkpoint-side totals recorded before the
    // restore; cold runs have an empty prefix.
    r.goodput_bytes = goodput_prefix_;
    r.goodput_bytes.resize(r.goodput_bytes.size() + g_ticks, 0);
    const std::size_t base = r.goodput_bytes.size() - g_ticks;
    for (const auto& gs : gseries_) {
      if (gs.empty()) continue;
      for (std::size_t t = 0; t < g_ticks; ++t) {
        r.goodput_bytes[base + t] += gs[t];
      }
    }
  }
  r.shards = shards_;
  r.events_processed = sim.events_processed();
  for (int s = 0; s < sim.n_shards(); ++s) {
    r.shard_events.push_back(sim.shard(s).events_run());
  }
  r.wall_sec = wall_sec_;
  r.events_stolen = sim.events_stolen();
  r.inbox_overflows = sim.inbox_overflows();
  // Device rollups: always on, deterministic (pure sim-time functions).
  for (const Switch* sw : net.switches()) {
    r.egress_ports_hw += sw->egress_ports_hw();
    r.ingress_ports_hw += sw->ingress_ports_hw();
    r.reclaim_sweeps += sw->reclaim_sweep_count();
    r.reclaimed_ports += sw->reclaimed_port_count();
    r.table_chunks += sw->table_chunks();
  }
  for (const Nic* nic : net.nics()) {
    r.receiver_slots_hw += nic->receiver_slots_hw();
    r.nic_class_transitions += nic->flow_index().transitions();
  }
  // Engine telemetry rollups + trace/flight export, present only when the
  // registry is live (BFC_METRICS / BFC_TRACE / BFC_FLIGHT).
  if (obs::Telemetry* tel = sim.telemetry()) {
    if (tel->config().metrics) {
      const obs::ShardObs m = tel->merged();
      r.clock_waits = m.counters[obs::kClockWaits];
      r.clock_wait_ns = m.counters[obs::kClockWaitNs];
      r.clock_advances = m.counters[obs::kClockAdvances];
      r.ring_flush_events = m.counters[obs::kRingFlushEvents];
      r.steal_batches = m.counters[obs::kStealBatchesOffered];
      r.steal_batches_stolen = m.counters[obs::kStealBatchesStolen];
      r.wheel_near_hw = static_cast<std::uint64_t>(
          m.gauges[obs::kWheelNear].hw);
      r.wheel_far_hw = static_cast<std::uint64_t>(
          m.gauges[obs::kWheelFar].hw);
      r.inbox_occ_hw = static_cast<std::uint64_t>(
          m.gauges[obs::kInboxOccupancy].hw);
      r.arena_blocks_hw =
          static_cast<std::uint64_t>(m.gauges[obs::kEventBlocks].hw) +
          static_cast<std::uint64_t>(m.gauges[obs::kArenaBlocks].hw);
    }
    if (tel->config().trace) {
      const std::string out = trace_out_path();
      if (!obs::write_chrome_trace(out.c_str(), *tel)) {
        std::fprintf(stderr, "run_experiment: cannot write trace '%s'\n",
                     out.c_str());
      }
    }
    if (tel->flight_enabled()) {
      for (int s = 0; s < sim.n_shards(); ++s) {
        r.flight.push_back(tel->flight(s).snapshot());
      }
    }
  }
  return r;
}

ExperimentResult run_experiment(const TopoGraph& topo,
                                const ExperimentConfig& cfg) {
  ExperimentRun run(topo, cfg);
  run.run_to(run.horizon());
  return run.collect();
}

void run_points(std::size_t n,
                const std::function<void(std::size_t)>& point) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::min({n, hw, std::size_t{8}});
  auto run = [&](std::size_t i) {
    tl_point = static_cast<long>(i);
    point(i);
    tl_point = -1;
  };
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) run(i);
    return;
  }
  // Index-claiming pool: points share nothing mutable (each builds its
  // own engine + network over read-only inputs), so workers race only on
  // the claim counter.
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      run(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
  for (std::thread& th : pool) th.join();
}

}  // namespace bfc
