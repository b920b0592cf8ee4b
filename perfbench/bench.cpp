// Simulator benchmark: one workload per invocation, measured end to end
// (CPU seconds of set-up; CPU microseconds of the run and of the whole
// per offered data packet, at a nominal machine speed; peak RSS) and
// checked for exact repeatability of every simulated statistic. With --trace 1 the
// same workload runs with the engine's metrics registry on
// (BFC_METRICS=1), interleaved with plain repetitions, and each layer is
// timed through its public API; the spans are written as Chrome-trace
// JSON (loadable in Perfetto).
//
//   perfbench --workload incast_bfc --seed 42 --seconds 50 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/bloom.hpp"
#include "core/flow_table.hpp"
#include "core/params.hpp"
#include "core/topology.hpp"
#include "core/vfid.hpp"
#include "engine/event.hpp"
#include "engine/timing_wheel.hpp"
#include "harness/experiment.hpp"
#include "sim/rng.hpp"
#include "stats/percentile.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace bfc;

namespace {

using Clock = std::chrono::steady_clock;

// ---- workloads -------------------------------------------------------------

enum class Fabric { kT1, kT3_1024 };

struct Workload {
  const char* name;
  Fabric fabric;
  Scheme scheme;
  double load;         // background load, fraction of host capacity
  double incast_load;  // extra load as 100-to-1 incast bursts
  Time stop;           // arrivals end here
  Time drain;          // simulated past stop so flows finish
  int shards;
  int check_shards;    // flow stats must match a run at this count (0: none)
};

// Open loop throughout: Poisson arrivals at a fixed share of host capacity
// (traffic_gen.hpp); a flow's FCT runs from its scheduled arrival.
const Workload kWorkloads[] = {
    {"incast_bfc", Fabric::kT1, Scheme::kBfc, 0.60, 0.05, microseconds(400),
     milliseconds(1), 1, 0},
    {"incast_dcqcn", Fabric::kT1, Scheme::kDcqcn, 0.60, 0.05,
     microseconds(400), milliseconds(1), 1, 0},
    {"fabric_2shard", Fabric::kT3_1024, Scheme::kBfc, 0.35, 0.02,
     microseconds(100), milliseconds(1), 2, 1},
};

TopoGraph build_topo(Fabric f) {
  return f == Fabric::kT1 ? TopoGraph::fat_tree(FatTreeConfig::t1())
                          : TopoGraph::three_tier(ThreeTierConfig::t3_1024());
}

ExperimentConfig make_config(const Workload& w, std::uint64_t seed,
                             int shards) {
  ExperimentConfig cfg;
  cfg.scheme = w.scheme;
  cfg.traffic.dist = &SizeDist::by_name("google");
  cfg.traffic.load = w.load;
  cfg.traffic.incast_load = w.incast_load;
  cfg.traffic.stop = w.stop;
  cfg.traffic.seed = seed;
  cfg.drain = w.drain;
  cfg.shards = shards;
  return cfg;
}

// ---- spans -----------------------------------------------------------------

struct SpanRec {
  std::string name;
  double t0 = 0;  // seconds since the timeline's origin
  double t1 = 0;
  int parent = -1;
};

// In-memory span log; spans nest by begin/end order on one thread.
class Timeline {
 public:
  int begin(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now(), 0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }
  double end(int id) {
    SpanRec& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now();
    open_.pop_back();
    return s.t1 - s.t0;
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

  // Span duration minus the time its direct children cover.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].t1 - spans_[i].t0;
    }
    for (const SpanRec& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
      }
    }
    return self;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRec> spans_;
  std::vector<int> open_;
};

// Times `fn` as one span and returns its duration in seconds.
template <class Fn>
double timed(Timeline& tl, const char* name, Fn&& fn) {
  const int id = tl.begin(name);
  fn();
  return tl.end(id);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Keeps computed values observable so timed loops are not folded away.
volatile std::uint64_t g_sink = 0;

// ---- machine stamp ---------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    while (!s.empty() && (s.back() == ' ' || s.back() == '\0')) s.pop_back();
    if (!s.empty()) return s;
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// CPU seconds the process has used, all threads, user + system.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Moves the calling thread round-robin over the CPUs it may run on, one
// step per period, for as long as it lives. On a shared host the vCPUs
// run at different speeds, and each changes over minutes (on a 4-vCPU
// cloud VM the same set-up took 0.78 ms on one vCPU and 1.29 ms on
// another at the same moment). The scheduler keeps a busy thread on one
// vCPU, so a single-threaded time would measure whichever one it picked;
// rotating spreads every measurement over all of them. Only for
// single-threaded work: threads spawned meanwhile inherit a one-CPU mask.
class CoreRotator {
 public:
  explicit CoreRotator(std::chrono::milliseconds period)
      : target_(pthread_self()) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
    }
    if (cpus.size() < 2) return;
    thread_ = std::thread([this, cpus, period] {
      std::unique_lock<std::mutex> lock(mu_);
      for (std::size_t i = 0; !stop_; ++i) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i % cpus.size()], &one);
        pthread_setaffinity_np(target_, sizeof one, &one);
        cv_.wait_for(lock, period, [this] { return stop_; });
      }
    });
  }
  ~CoreRotator() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
    pthread_setaffinity_np(target_, sizeof saved_, &saved_);
  }
  CoreRotator(const CoreRotator&) = delete;
  CoreRotator& operator=(const CoreRotator&) = delete;

 private:
  pthread_t target_;
  cpu_set_t saved_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

constexpr std::chrono::milliseconds kRotatePeriod{25};

// Fixed reference kernel: a small discrete-event loop, a binary heap of
// 64 Ki pending events over a 32 MiB state array, where each event updates
// one random slot and schedules the next. It is the simulator's own mix of
// heap operations and scattered loads, in code the simulator does not
// share, so its CPU time moves with the machine (other tenants' use of the
// caches and cores) and never with the simulator's code. Every pass does
// the same work on the same preallocated memory.
class RefKernel {
 public:
  RefKernel() : state_(kSlots) { heap_.reserve(kPending); }

  // CPU seconds of one pass, spread over every CPU as the single-shard
  // repetitions are.
  double cpu_s() {
    const CoreRotator rotate(kRotatePeriod);
    const double t0 = cpu_now();
    Rng rng(17);
    heap_.clear();
    for (std::uint32_t i = 0; i < kPending; ++i) {
      heap_.push_back({rng.next_u64() % 100'000,
                       static_cast<std::uint32_t>(rng.next_u64() % kSlots)});
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    for (std::uint32_t i = 0; i < kEvents; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const auto [at, slot] = heap_.back();
      std::uint64_t& v = state_[slot];
      v = v * 31 + at;
      const std::uint64_t x = v ^ rng.next_u64();
      heap_.back() = {at + 1 + x % 5'000,
                      static_cast<std::uint32_t>((x >> 20) % kSlots)};
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    g_sink = g_sink + heap_.front().first;
    return cpu_now() - t0;
  }

  // Resident memory the kernel holds for the whole run.
  double resident_mb() const {
    return static_cast<double>(state_.size() * sizeof(std::uint64_t) +
                               heap_.capacity() * sizeof(heap_[0])) /
           (1024.0 * 1024.0);
  }

 private:
  static constexpr std::uint32_t kSlots = 1u << 22;  // 32 MiB of state
  static constexpr std::uint32_t kPending = 1u << 16;
  static constexpr std::uint32_t kEvents = 300'000;
  std::vector<std::uint64_t> state_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
};

// Run times are reported at the speed of a machine on which one
// RefKernel pass takes this long: each repetition's CPU time is scaled by
// kRefNominalS over the mean of the passes just before and after it.
constexpr double kRefNominalS = 0.1;

// ---- simulated outcome -----------------------------------------------------

constexpr std::uint64_t kShortMaxBytes = 2'812;    // paper's short band
constexpr std::uint64_t kLongMinBytes = 889'140;   // flows strictly above

// Slowdowns of one size band. Flows that started but did not finish by
// the horizon rank above every finished flow: each enters the sample at
// the band's largest finished slowdown.
struct BandStats {
  std::vector<double> finished;
  std::uint64_t started = 0;
  std::uint64_t unfinished() const {
    return started > finished.size() ? started - finished.size() : 0;
  }
  std::vector<double> censored() const {
    std::vector<double> v = finished;
    const double worst =
        finished.empty() ? 0 : *std::max_element(v.begin(), v.end());
    v.insert(v.end(), unfinished(), worst);
    return v;
  }
};

// Arrivals of one trace, its data packets, and its non-incast arrivals
// per band.
struct TraceCounts {
  std::uint64_t arrivals = 0, packets = 0, short_flows = 0, long_flows = 0;
};

TraceCounts count_trace(const std::vector<FlowArrival>& trace) {
  TraceCounts c;
  c.arrivals = trace.size();
  for (const FlowArrival& a : trace) {
    c.packets += (a.bytes + kPayloadBytes - 1) / kPayloadBytes;
    if (a.incast) continue;
    if (a.bytes <= kShortMaxBytes) ++c.short_flows;
    if (a.bytes > kLongMinBytes) ++c.long_flows;
  }
  return c;
}

// The flows of one run by the paper's size bands.
struct SimStats {
  BandStats short_band, long_band;
  bool consistent = false;  // agrees with its arrival trace, no drops

  double short_p(double p) const {
    return percentile(short_band.censored(), p);
  }
  double long_mean() const {
    const std::vector<double> v = long_band.censored();
    return v.empty() ? 0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  }
};

SimStats sim_stats(const ExperimentResult& r, const TraceCounts& tc) {
  SimStats st;
  std::uint64_t lower = 0;  // previous bin edge
  for (const SizeBin& b : r.bins) {
    BandStats* band = b.hi_bytes <= kShortMaxBytes ? &st.short_band
                      : lower >= kLongMinBytes     ? &st.long_band
                                                   : nullptr;
    if (band != nullptr) {
      band->finished.insert(band->finished.end(), b.slowdowns.begin(),
                            b.slowdowns.end());
    }
    lower = b.hi_bytes;
  }
  st.short_band.started = tc.short_flows;
  st.long_band.started = tc.long_flows;
  st.consistent = r.flows_started == tc.arrivals &&
                  st.short_band.finished.size() <= tc.short_flows &&
                  st.long_band.finished.size() <= tc.long_flows &&
                  !st.short_band.finished.empty() &&
                  !st.long_band.finished.empty() && r.drops == 0;
  return st;
}

// Every simulated value one run reports, flattened for an exact compare.
std::vector<double> fingerprint(const ExperimentResult& r) {
  const double scalars[] = {
      static_cast<double>(r.flows_started),
      static_cast<double>(r.flows_completed),
      static_cast<double>(r.drops),
      static_cast<double>(r.bfc.pauses),
      static_cast<double>(r.bfc.resumes),
      static_cast<double>(r.bfc.overflow_packets),
      r.pfc_frac_tor_to_spine,
      r.pfc_frac_spine_to_tor,
      r.collision_frac,
      static_cast<double>(r.acks_deferred),
      static_cast<double>(r.egress_ports_hw),
      static_cast<double>(r.ingress_ports_hw),
      static_cast<double>(r.reclaim_sweeps),
      static_cast<double>(r.table_chunks),
      static_cast<double>(r.receiver_slots_hw),
      static_cast<double>(r.nic_class_transitions),
      static_cast<double>(r.events_processed),
  };
  std::vector<double> f(std::begin(scalars), std::end(scalars));
  f.insert(f.end(), r.buffer_samples_mb.begin(), r.buffer_samples_mb.end());
  for (const SizeBin& b : r.bins) {
    f.push_back(static_cast<double>(b.slowdowns.size()));
    f.insert(f.end(), b.slowdowns.begin(), b.slowdowns.end());
  }
  return f;
}

// The flow statistics every shard count must reproduce (fig15's
// same_stats); events_processed legitimately differs by shard count.
bool same_flow_stats(const ExperimentResult& a, const ExperimentResult& b) {
  return a.flows_started == b.flows_started &&
         a.flows_completed == b.flows_completed && a.drops == b.drops &&
         a.bfc.pauses == b.bfc.pauses && a.bfc.resumes == b.bfc.resumes &&
         a.buffer_samples_mb == b.buffer_samples_mb &&
         a.p99_slowdown == b.p99_slowdown;
}

// ---- one repetition --------------------------------------------------------

// One repetition: wall-clock phase times (the spans) and the CPU seconds
// of its set-up, run and whole, which the end-to-end metrics report.
struct Rep {
  double build_s = 0, partition_s = 0, ctor_s = 0;
  double traffic_s = 0, drain_s = 0, collect_s = 0;
  double wall_s = 0;
  double setup_cpu_s = 0, run_cpu_s = 0, total_cpu_s = 0;
  double ref_s = 0;  // mean RefKernel pass around the repetition
  double setup_s() const { return build_s + partition_s + ctor_s; }
  double run_s() const { return traffic_s + drain_s; }
  // CPU seconds at the nominal machine speed (kRefNominalS).
  double run_ref_s() const { return run_cpu_s * kRefNominalS / ref_s; }
  double total_ref_s() const { return total_cpu_s * kRefNominalS / ref_s; }
  ExperimentResult result;
};

// Builds the fabric and runs one experiment, one span per phase. The
// registry (BFC_METRICS) is read when the engine is constructed.
Rep run_rep(const Workload& w, std::uint64_t seed, int shards, bool traced,
            Timeline& tl) {
  if (traced) {
    setenv("BFC_METRICS", "1", 1);
  } else {
    unsetenv("BFC_METRICS");
  }
  const ExperimentConfig cfg = make_config(w, seed, shards);
  std::optional<CoreRotator> rotate;
  if (shards == 1) rotate.emplace(kRotatePeriod);
  Rep rep;
  const double cpu0 = cpu_now();
  const int root = tl.begin(traced ? "rep.traced" : "rep");
  std::unique_ptr<TopoGraph> topo;
  std::unique_ptr<ExperimentRun> run;
  rep.build_s = timed(tl, "topology.build", [&] {
    topo = std::make_unique<TopoGraph>(build_topo(w.fabric));
  });
  rep.partition_s = timed(tl, "topology.partition", [&] {
    g_sink = g_sink + topo->partition(shards).size();
  });
  rep.ctor_s = timed(tl, "harness.ctor", [&] {
    run = std::make_unique<ExperimentRun>(*topo, cfg);
  });
  const double cpu1 = cpu_now();
  rep.traffic_s = timed(tl, "harness.traffic",
                        [&] { run->run_to(cfg.traffic.stop); });
  rep.drain_s = timed(tl, "harness.drain",
                      [&] { run->run_to(run->horizon()); });
  const double cpu2 = cpu_now();
  rep.collect_s = timed(tl, "harness.collect",
                        [&] { rep.result = run->collect(); });
  rep.wall_s = tl.end(root);
  const double cpu3 = cpu_now();
  rep.setup_cpu_s = cpu1 - cpu0;
  rep.run_cpu_s = cpu2 - cpu1;
  rep.total_cpu_s = cpu3 - cpu0;
  run.reset();
  topo.reset();
  unsetenv("BFC_METRICS");
  return rep;
}

// Median of `field` over the quieter half (rounded up) of `reps`: those
// whose run got the largest share of its wall time on a CPU. On a shared
// host another tenant's burst both takes CPU time from the process (steal)
// and slows the time it gets (a repetition at a 0.75 share took 1.2-1.5x
// the CPU time of one at 1.0), so the half with the least steal measures
// the simulator rather than the neighbours. The share depends only on the
// host: a change to the simulator moves every repetition alike.
double quiet_median(const std::vector<Rep>& reps, double (*field)(const Rep&)) {
  std::vector<const Rep*> by_share;
  for (const Rep& r : reps) by_share.push_back(&r);
  std::sort(by_share.begin(), by_share.end(), [](const Rep* a, const Rep* b) {
    return a->run_cpu_s / a->run_s() > b->run_cpu_s / b->run_s();
  });
  by_share.resize((by_share.size() + 1) / 2);
  std::vector<double> v;
  for (const Rep* r : by_share) v.push_back(field(*r));
  return median(v);
}

// Median CPU seconds of fresh set-ups (topology build, partition,
// ExperimentRun constructor), each torn down before the next: at least
// 15, and for at least 1 s so that the set-up visits every CPU many times
// (it is single-threaded at any shard count; shard threads start in
// run_to). Scaled to the nominal machine speed like the repetitions, by
// the mean of a RefKernel pass before and after.
double setup_s(const Workload& w, std::uint64_t seed, RefKernel& ref) {
  const ExperimentConfig cfg = make_config(w, seed, w.shards);
  const double ref_before = ref.cpu_s();
  std::vector<double> v;
  {
    const CoreRotator rotate(kRotatePeriod);
    const auto end = Clock::now() + std::chrono::seconds(1);
    while (v.size() < 15 || Clock::now() < end) {
      const double t0 = cpu_now();
      const TopoGraph topo = build_topo(w.fabric);
      g_sink = g_sink + topo.partition(w.shards).size();
      const ExperimentRun run(topo, cfg);
      v.push_back(cpu_now() - t0);
    }
  }
  const double ref_s = 0.5 * (ref_before + ref.cpu_s());
  std::printf("set-up: %zu set-ups, median %.6f s CPU, ref pass %.4f s\n",
              v.size(), median(v), ref_s);
  return median(v) * kRefNominalS / ref_s;
}

// ---- layer probes (traced run) ---------------------------------------------

// ns per route_into over the trace's flow keys.
double route_ns(const TopoGraph& topo, const std::vector<FlowArrival>& trace) {
  if (trace.empty()) return 0;
  HopVec hops;
  std::uint64_t calls = 0, hops_seen = 0;
  const auto t0 = Clock::now();
  while (calls < 400'000) {
    for (const FlowArrival& a : trace) {
      topo.route_into(a.key, hops);
      hops_seen += hops.size();
    }
    calls += trace.size();
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  g_sink = g_sink + hops_seen;
  return s * 1e9 / static_cast<double>(calls);
}

// ns per arrival for a fresh ArrivalStream pulled to the stop time.
double gen_ns_per_arrival(const TopoGraph& topo, const TrafficConfig& tc,
                          std::uint64_t* arrivals) {
  std::uint64_t n = 0;
  const auto t0 = Clock::now();
  ArrivalStream stream(topo, tc);
  stream.advance(tc.stop, [&](const FlowArrival& a) { n += a.bytes > 0; });
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  *arrivals = n;
  return n == 0 ? 0 : s * 1e9 / static_cast<double>(n);
}

std::vector<std::uint32_t> trace_vfids(const std::vector<FlowArrival>& trace,
                                       std::uint32_t n_vfids) {
  std::vector<std::uint32_t> v;
  v.reserve(trace.size());
  for (const FlowArrival& a : trace) v.push_back(vfid_of(a.key, n_vfids));
  return v;
}

// ns per FlowTable acquire + erase pair, at the switch's default geometry
// (16384 VFIDs, 4 ways), over the trace's VFIDs in batches of 256 live
// entries spread over 8 egress ports.
double flow_table_ns(const std::vector<std::uint32_t>& vfids) {
  if (vfids.empty()) return 0;
  constexpr int kVfids = 16384;
  FlowTable table(kVfids, 4, std::max(64, kVfids / 16));
  constexpr std::size_t kBatch = 256;
  std::vector<FlowEntry*> live;
  live.reserve(kBatch);
  std::uint64_t pairs = 0;
  const auto t0 = Clock::now();
  while (pairs < 2'000'000) {
    for (std::size_t i = 0; i < vfids.size(); i += kBatch) {
      const std::size_t end = std::min(vfids.size(), i + kBatch);
      for (std::size_t j = i; j < end; ++j) {
        bool created = false;
        FlowEntry* e = table.acquire(vfids[j], static_cast<int>(j & 7), 0,
                                     created);
        if (e != nullptr && created) live.push_back(e);
      }
      for (FlowEntry* e : live) table.erase(e);
      pairs += end - i;
      live.clear();
    }
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  g_sink = g_sink + table.size();
  return s * 1e9 / static_cast<double>(pairs);
}

// ns per CountingBloom add + contains (with the matching remove once a
// key leaves a 64-key window, as a resume would), at the pause-frame
// geometry (128 B, 4 hashes), over the trace's VFIDs.
double bloom_ns(const std::vector<std::uint32_t>& vfids) {
  if (vfids.empty()) return 0;
  CountingBloom bloom(128, 4);
  constexpr std::size_t kWindow = 64;
  std::uint64_t ops = 0, hits = 0;
  const auto t0 = Clock::now();
  while (ops < 1'000'000) {
    for (std::size_t i = 0; i < vfids.size(); ++i) {
      bloom.add(vfids[i]);
      hits += bloom.contains(vfids[i]) ? 1 : 0;
      if (i >= kWindow) bloom.remove(vfids[i - kWindow]);
    }
    for (std::size_t i = vfids.size() > kWindow ? vfids.size() - kWindow : 0;
         i < vfids.size(); ++i) {
      bloom.remove(vfids[i]);
    }
    ops += vfids.size();
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  g_sink = g_sink + hits;
  return s * 1e9 / static_cast<double>(ops);
}

// ns per TimingWheel pop + push at a steady depth of `depth` pending
// events. Each popped event is re-armed after a packet-scale delay
// (1-8192 ns: links, serialization) three times in four, else after a
// timer-scale one (up to ~1 ms: RTO re-arms), the mix the wheel's
// geometry is sized for (engine/timing_wheel.hpp).
double wheel_ns(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  std::vector<Event> pool(depth);
  TimingWheel wheel;
  Rng rng(7);
  auto delay = [&rng] {
    const std::uint64_t x = rng.next_u64();
    return 1 + static_cast<Time>((x & 3) != 0 ? (x >> 2) % 8192
                                              : (x >> 2) % 1'048'576);
  };
  std::uint64_t key = 0;
  for (Event& e : pool) {
    e.at = delay();
    e.key = key++;
    wheel.push(&e);
  }
  constexpr std::uint64_t kOps = 2'000'000;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    Event* e = wheel.pop_until(TimingWheel::kNever);
    e->at += delay();
    e->key = key++;
    wheel.push(e);
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  g_sink = g_sink + static_cast<std::uint64_t>(wheel.min_time());
  return s * 1e9 / static_cast<double>(kOps);
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + fmt(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

bool write_chrome_trace(const std::string& path, const Timeline& tl,
                        const std::string& stamp) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {%s},\n"
                  "\"traceEvents\": [\n",
               stamp.c_str());
  const auto& spans = tl.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    const std::string parent =
        s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].name : "";
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d, \"parent_name\": \"%s\"}}\n",
                 i > 0 ? "," : "", json_escape(s.name).c_str(), s.t0 * 1e6,
                 (s.t1 - s.t0) * 1e6, i, s.parent,
                 json_escape(parent).c_str());
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// Per span name: count, total and self seconds.
void print_self_times(const Timeline& tl) {
  struct Agg {
    std::string name;
    int count = 0;
    double total = 0, self = 0;
  };
  std::vector<Agg> aggs;
  const std::vector<double> self = tl.self_times();
  const auto& spans = tl.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(aggs.begin(), aggs.end(), [&](const Agg& a) {
      return a.name == spans[i].name;
    });
    if (it == aggs.end()) {
      aggs.push_back({spans[i].name, 0, 0, 0});
      it = aggs.end() - 1;
    }
    ++it->count;
    it->total += spans[i].t1 - spans[i].t0;
    it->self += self[i];
  }
  std::printf("%-26s %6s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const Agg& a : aggs) {
    std::printf("%-26s %6d %12.6f %12.6f\n", a.name.c_str(), a.count,
                a.total, a.self);
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // empty: keep the spans in memory only
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out PATH]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) usage("--seed is not an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || val.empty() || !(a.seconds > 0)) {
        usage("--seconds is not a positive number");
      }
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = val;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *wp;
  unsetenv("BFC_METRICS");
  unsetenv("BFC_TRACE");

  RefKernel ref;
  const double ref_s = ref.cpu_s();
  const std::string stamp =
      "\"workload\": \"" + std::string(w.name) +
      "\", \"seed\": " + std::to_string(args.seed) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu\": \"" + json_escape(cpu_model()) + "\", \"compiler\": \"" +
      json_escape(compiler()) + "\", \"build_type\": \"" +
      PERFBENCH_BUILD_TYPE + "\", \"host_ref_s\": " + fmt(ref_s);
  std::printf("stamp {%s}\n", stamp.c_str());

  // The invocation's input: the arrival trace of --seed. Its counts give
  // the band sizes for the tail metrics; its keys feed the layer probes.
  const ExperimentConfig cfg = make_config(w, args.seed, w.shards);
  const TopoGraph topo = build_topo(w.fabric);
  const std::vector<FlowArrival> trace = generate_trace(topo, cfg.traffic);
  const TraceCounts counts = count_trace(trace);

  // Rep 0 warms the heap and caches and fixes the simulated values that
  // every later repetition must reproduce exactly; it is not timed. Timed
  // repetitions follow while the next one, as long as the last, still
  // ends within --seconds of the start (at least kMinTimed of them); a
  // RefKernel pass runs after each, so every repetition has one on either
  // side. The traced run alternates plain and registry-on repetitions so
  // the overhead ratio compares like with like.
  constexpr std::size_t kMinTimed = 4;
  Timeline tl;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> want;
  ExperimentResult first;
  std::vector<Rep> plain, traced;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  double ref_before = ref_s;
  for (std::size_t i = 0;; ++i) {
    const bool with_metrics = args.trace && i % 2 == 0;
    const auto t0 = Clock::now();
    Rep rep = run_rep(w, args.seed, w.shards, with_metrics, tl);
    ++attempted;
    double ref_after = 0;
    timed(tl, "host.ref", [&] { ref_after = ref.cpu_s(); });
    rep.ref_s = 0.5 * (ref_before + ref_after);
    ref_before = ref_after;
    if (i == 0) {
      want = fingerprint(rep.result);
    } else if (fingerprint(rep.result) != want) {
      std::printf("FAIL rep %zu: simulated values differ from rep 0\n", i);
      ++failed;
    }
    std::printf("rep %-3zu %s wall: setup=%.4fs traffic=%.4fs drain=%.4fs "
                "collect=%.4fs total=%.4fs | cpu: setup=%.4fs run=%.4fs "
                "total=%.4fs | ref=%.4fs | events=%llu\n",
                i, with_metrics ? "traced" : "plain ", rep.setup_s(),
                rep.traffic_s, rep.drain_s, rep.collect_s, rep.wall_s,
                rep.setup_cpu_s, rep.run_cpu_s, rep.total_cpu_s, ref_after,
                static_cast<unsigned long long>(rep.result.events_processed));
    if (i == 0) {
      first = std::move(rep.result);
      continue;
    }
    (with_metrics ? traced : plain).push_back(std::move(rep));
    const bool enough = args.trace
                            ? plain.size() >= kMinTimed / 2 &&
                                  traced.size() >= kMinTimed / 2
                            : plain.size() >= kMinTimed;
    const auto now = Clock::now();
    if (enough && now + (now - t0) > deadline) break;
  }
  // The kernel's memory is resident throughout; it is not the simulator's.
  const double rss_mb = peak_rss_mb() - ref.resident_mb();

  // Shard-count invariance: flow stats must match a run at another count.
  // A check run at 1 shard also gives the multi-shard speedup.
  double one_shard_run_s = 0;  // wall clock; 0: not measured
  if (w.check_shards > 0) {
    const Rep other = run_rep(w, args.seed, w.check_shards, false, tl);
    ++attempted;
    if (w.check_shards == 1) one_shard_run_s = other.run_s();
    const bool same = same_flow_stats(first, other.result);
    std::printf("shard check: %d vs %d shards -> %s\n", w.shards,
                w.check_shards, same ? "identical flow stats" : "MISMATCH");
    failed += same ? 0 : 1;
  }

  const SimStats st = sim_stats(first, counts);
  if (!st.consistent) {
    std::printf("FAIL result disagrees with its arrival trace (flows %llu "
                "vs %llu arrivals) or dropped packets (%lld)\n",
                static_cast<unsigned long long>(first.flows_started),
                static_cast<unsigned long long>(counts.arrivals),
                static_cast<long long>(first.drops));
    ++failed;
  }
  const double completed_frac =
      first.flows_started == 0
          ? 0
          : static_cast<double>(first.flows_completed) /
                static_cast<double>(first.flows_started);
  const double short_p50 = st.short_p(50), short_p99 = st.short_p(99);
  const double long_mean = st.long_mean();
  std::printf("sim: flows %llu/%llu completed (flows_incomplete_frac "
              "%.6f)\n",
              static_cast<unsigned long long>(first.flows_completed),
              static_cast<unsigned long long>(first.flows_started),
              1.0 - completed_frac);
  std::printf("sim: short_p50_slowdown %.4f x, short_p99_slowdown %.4f x "
              "(non-incast flows <= %llu B: n=%zu finished + %llu "
              "unfinished)\n",
              short_p50, short_p99,
              static_cast<unsigned long long>(kShortMaxBytes),
              st.short_band.finished.size(),
              static_cast<unsigned long long>(st.short_band.unfinished()));
  std::printf("sim: long_mean_slowdown %.4f x (non-incast flows > %llu B: "
              "n=%zu finished + %llu unfinished)\n",
              long_mean, static_cast<unsigned long long>(kLongMinBytes),
              st.long_band.finished.size(),
              static_cast<unsigned long long>(st.long_band.unfinished()));
  std::printf("sim: buffer_p99_mb %.4f MB (n=%zu per-switch samples)\n",
              first.buffer_p99_mb, first.buffer_samples_mb.size());

  auto med = [](const std::vector<Rep>& reps, double (*field)(const Rep&)) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(field(r));
    return median(v);
  };
  std::vector<Metric> metrics;
  if (!args.trace) {
    const double run_ref = quiet_median(plain, [](const Rep& r) {
      return r.run_ref_s();
    });
    const double total_ref = quiet_median(plain, [](const Rep& r) {
      return r.total_ref_s();
    });
    const double per_pkt = 1e6 / static_cast<double>(counts.packets);
    std::printf("timed reps: %zu, medians over the quieter %zu; offered "
                "data packets: %llu\n",
                plain.size(), (plain.size() + 1) / 2,
                static_cast<unsigned long long>(counts.packets));
    std::printf("quieter half: run %.4f s, total %.4f s at the nominal "
                "speed, cpu share %.3f of %d shards; all reps: ref pass "
                "%.4f s, cpu run %.4f s, wall run %.4f s, total %.4f s "
                "(medians)\n",
                run_ref, total_ref,
                quiet_median(plain, [](const Rep& r) {
                  return r.run_cpu_s / r.run_s();
                }) / w.shards,
                w.shards, med(plain, [](const Rep& r) { return r.ref_s; }),
                med(plain, [](const Rep& r) { return r.run_cpu_s; }),
                med(plain, [](const Rep& r) { return r.run_s(); }),
                med(plain, [](const Rep& r) { return r.wall_s; }));
    metrics = {
        {"setup_s", setup_s(w, args.seed, ref), "s"},
        {"run_us_per_pkt", run_ref * per_pkt, "us"},
        {"total_us_per_pkt", total_ref * per_pkt, "us"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"flows_completed_frac", completed_frac, "frac"},
    };
  } else {
    const ExperimentResult& r = traced.front().result;
    // Layer probes over this workload's own inputs; medians of three.
    auto probe = [&](const char* name, const std::function<double()>& fn) {
      std::vector<double> v;
      for (int i = 0; i < 3; ++i) {
        const int id = tl.begin(name);
        v.push_back(fn());
        tl.end(id);
      }
      return median(v);
    };
    std::uint64_t arrivals = 0;
    const double gen_ns = probe("workload.generate", [&] {
      return gen_ns_per_arrival(topo, cfg.traffic, &arrivals);
    });
    if (arrivals != counts.arrivals) {
      std::printf("FAIL ArrivalStream emitted %llu arrivals, "
                  "generate_trace %llu\n",
                  static_cast<unsigned long long>(arrivals),
                  static_cast<unsigned long long>(counts.arrivals));
      ++failed;
    }
    const std::vector<std::uint32_t> vfids = trace_vfids(trace, 16384);
    const double route = probe("topology.route", [&] {
      return route_ns(topo, trace);
    });
    const double table = probe("switch.flow_table", [&] {
      return flow_table_ns(vfids);
    });
    const double bloom = probe("switch.bloom", [&] { return bloom_ns(vfids); });
    const double wheel = probe("engine.wheel", [&] {
      return wheel_ns(r.wheel_near_hw + r.wheel_far_hw);
    });

    const double run_traced = med(traced, [](const Rep& x) {
      return x.run_s();
    });
    const double run_plain = med(plain, [](const Rep& x) { return x.run_s(); });
    const double wall_traced = med(traced, [](const Rep& x) {
      return x.wall_s;
    });
    const double phases_traced = med(traced, [](const Rep& x) {
      return x.setup_s() + x.run_s() + x.collect_s;
    });
    const double events = static_cast<double>(r.events_processed);
    double max_shard = 0, sum_shard = 0;
    for (const std::uint64_t e : r.shard_events) {
      max_shard = std::max(max_shard, static_cast<double>(e));
      sum_shard += static_cast<double>(e);
    }
    const double mean_shard =
        r.shard_events.empty()
            ? 0
            : sum_shard / static_cast<double>(r.shard_events.size());

    // Reconciliation: the phase spans must account for the wall time.
    const double coverage = wall_traced > 0 ? phases_traced / wall_traced : 0;
    std::printf("reconciliation: phase spans cover %.4f of the wall time "
                "(traced reps: %zu, plain reps: %zu)\n",
                coverage, traced.size(), plain.size());
    if (std::fabs(coverage - 1) > 0.10) {
      std::printf("FAIL phase spans do not sum to the wall time within "
                  "10%%\n");
      ++failed;
    }
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    metrics = {
        {"harness.ctor_s", med(traced, [](const Rep& x) { return x.ctor_s; }),
         "s"},
        {"harness.traffic_s",
         med(traced, [](const Rep& x) { return x.traffic_s; }), "s"},
        {"harness.drain_s",
         med(traced, [](const Rep& x) { return x.drain_s; }), "s"},
        {"harness.collect_s",
         med(traced, [](const Rep& x) { return x.collect_s; }), "s"},
        {"topology.build_s",
         med(traced, [](const Rep& x) { return x.build_s; }), "s"},
        {"topology.partition_s",
         med(traced, [](const Rep& x) { return x.partition_s; }), "s"},
        {"topology.route_ns", route, "ns"},
        {"workload.arrivals", u(counts.arrivals), "count"},
        {"workload.gen_ns_per_arrival", gen_ns, "ns"},
        {"engine.events", events, "count"},
        {"engine.mev_per_s", run_traced > 0 ? events / run_traced / 1e6 : 0,
         "Mev/s"},
        {"engine.ns_per_event", events > 0 ? run_traced * 1e9 / events : 0,
         "ns"},
        {"engine.wheel_near_hw", u(r.wheel_near_hw), "count"},
        {"engine.wheel_far_hw", u(r.wheel_far_hw), "count"},
        {"engine.arena_blocks_hw", u(r.arena_blocks_hw), "count"},
        {"engine.wheel_push_pop_ns", wheel, "ns"},
        {"engine.speedup_vs_1shard",
         w.shards == 1 ? 1.0
         : one_shard_run_s > 0 && run_plain > 0 ? one_shard_run_s / run_plain
                                                : 0,
         "x"},
        {"engine.shard_imbalance",
         mean_shard > 0 ? max_shard / mean_shard : 0, "ratio"},
        {"engine.clock_waits", u(r.clock_waits), "count"},
        {"engine.clock_wait_ns", u(r.clock_wait_ns), "ns"},
        {"engine.ring_flush_events", u(r.ring_flush_events), "count"},
        {"engine.steal_batches", u(r.steal_batches), "count"},
        {"engine.steal_batches_stolen", u(r.steal_batches_stolen), "count"},
        {"engine.events_stolen", u(r.events_stolen), "count"},
        {"engine.inbox_overflows", u(r.inbox_overflows), "count"},
        {"switch.bfc_pauses", static_cast<double>(r.bfc.pauses), "count"},
        {"switch.bfc_resumes", static_cast<double>(r.bfc.resumes), "count"},
        {"switch.collision_frac", r.collision_frac, "frac"},
        {"switch.drops", static_cast<double>(r.drops), "count"},
        {"switch.pfc_frac_tor_to_spine", r.pfc_frac_tor_to_spine, "frac"},
        {"switch.pfc_frac_spine_to_tor", r.pfc_frac_spine_to_tor, "frac"},
        {"switch.egress_ports_hw", u(r.egress_ports_hw), "count"},
        {"switch.table_chunks", u(r.table_chunks), "count"},
        {"switch.reclaim_sweeps", u(r.reclaim_sweeps), "count"},
        {"switch.flow_table_acquire_erase_ns", table, "ns"},
        {"switch.bloom_add_contains_ns", bloom, "ns"},
        {"nic.class_transitions", u(r.nic_class_transitions), "count"},
        {"nic.receiver_slots_hw", u(r.receiver_slots_hw), "count"},
        {"nic.acks_deferred", static_cast<double>(r.acks_deferred), "count"},
        {"sim.short_p50_slowdown", short_p50, "x"},
        {"sim.short_p99_slowdown", short_p99, "x"},
        {"sim.long_mean_slowdown", long_mean, "x"},
        {"sim.buffer_p99_mb", first.buffer_p99_mb, "MB"},
        {"sim.flows_incomplete_frac", 1.0 - completed_frac, "frac"},
        {"host.ref_s", med(traced, [](const Rep& x) { return x.ref_s; }), "s"},
        {"host.cpu_share",
         med(traced,
             [](const Rep& x) { return x.run_cpu_s / x.run_s(); }) /
             w.shards,
         "frac"},
        {"obs.trace_overhead_frac",
         run_plain > 0 ? run_traced / run_plain - 1 : 0, "frac"},
    };
    print_self_times(tl);
    if (args.trace_out.empty()) {
      std::printf("trace: no --trace-out given, not written\n");
    } else if (write_chrome_trace(args.trace_out, tl, stamp)) {
      std::printf("trace -> %s\n", args.trace_out.c_str());
    } else {
      std::printf("FAIL cannot write trace %s\n", args.trace_out.c_str());
      ++failed;
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}
