// Microbenchmarks (google-benchmark) for the hardware-constrained data
// structures of Section 3 — these must be cheap enough for a per-packet
// pipeline — plus the engine scheduler (timing wheel vs. reference heap)
// and the event memory footprint. The scheduler and footprint rows are
// also emitted into BENCH_engine.json ("micro" section) so PRs can diff
// them machine-readably.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <sstream>

#include "bench_json.hpp"
#include "core/bloom.hpp"
#include "core/flow_table.hpp"
#include "core/vfid.hpp"
#include "engine/event.hpp"
#include "engine/timing_wheel.hpp"
#include "sim/rng.hpp"
#include "workload/size_dist.hpp"

namespace bfc {
namespace {

void BM_VfidHash(benchmark::State& state) {
  FlowKey k{1, 2, 3, 4};
  for (auto _ : state) {
    k.src_port++;
    benchmark::DoNotOptimize(vfid_of(k, 16384));
  }
}
BENCHMARK(BM_VfidHash);

void BM_BloomAddRemove(benchmark::State& state) {
  CountingBloom cb(static_cast<int>(state.range(0)), 4);
  std::uint32_t v = 0;
  for (auto _ : state) {
    cb.add(v);
    cb.remove(v);
    ++v;
  }
}
BENCHMARK(BM_BloomAddRemove)->Arg(16)->Arg(128);

void BM_BloomContains(benchmark::State& state) {
  CountingBloom cb(128, 4);
  for (std::uint32_t v = 0; v < 32; ++v) cb.add(v * 131);
  std::uint32_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cb.contains(probe++));
  }
}
BENCHMARK(BM_BloomContains);

void BM_BloomSnapshot(benchmark::State& state) {
  CountingBloom cb(128, 4);
  for (std::uint32_t v = 0; v < 32; ++v) cb.add(v * 131);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cb.snapshot());
  }
}
BENCHMARK(BM_BloomSnapshot);

void BM_SnapshotContains(benchmark::State& state) {
  CountingBloom cb(128, 4);
  for (std::uint32_t v = 0; v < 32; ++v) cb.add(v * 131);
  const auto bits = cb.snapshot();
  std::uint32_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bloom_snapshot_contains(*bits, probe++, 4));
  }
}
BENCHMARK(BM_SnapshotContains);

void BM_FlowTableAcquireErase(benchmark::State& state) {
  FlowTable t(16384, 4, 100);
  std::uint32_t v = 0;
  bool created;
  for (auto _ : state) {
    FlowEntry* e = t.acquire(v % 16384, 1, 2, created);
    t.erase(e);
    ++v;
  }
}
BENCHMARK(BM_FlowTableAcquireErase);

void BM_FlowTableFindHot(benchmark::State& state) {
  FlowTable t(16384, 4, 100);
  bool created;
  for (std::uint32_t v = 0; v < 256; ++v) t.acquire(v * 64, 1, 2, created);
  std::uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.find((v++ % 256) * 64, 1, 2));
  }
}
BENCHMARK(BM_FlowTableFindHot);

// Reference scheduler: the PR-2 per-shard binary heap of (at, key, Event*)
// items. Steady-state push/pop at `range` pending events — the pattern
// run_window drives — for a like-for-like contrast with the wheel.
struct RefItem {
  Time at;
  std::uint64_t key;
  Event* e;
};
struct RefLater {
  bool operator()(const RefItem& a, const RefItem& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.key > b.key;
  }
};

// One workload for both schedulers and both reporters (google-benchmark
// rows and the BENCH_engine.json "sched_push_pop_ns" rows): seed `n`
// pending events uniformly over 1 ms, then steady-state pop-min /
// re-push with a fresh uniform delta per op.
void sched_seed(EventPool& pool, Rng& rng, std::uint64_t& k, int n,
                std::vector<RefItem>* heap, TimingWheel* wheel) {
  for (int i = 0; i < n; ++i) {
    Event* e = pool.alloc();
    e->at = static_cast<Time>(rng.uniform_int(0, 1'000'000));
    e->key = k++;
    if (heap != nullptr) {
      heap->push_back({e->at, e->key, e});
      std::push_heap(heap->begin(), heap->end(), RefLater{});
    } else {
      wheel->push(e);
    }
  }
}

void sched_heap_step(std::vector<RefItem>& heap, Rng& rng,
                     std::uint64_t& k) {
  std::pop_heap(heap.begin(), heap.end(), RefLater{});
  Event* e = heap.back().e;
  heap.pop_back();
  e->at += static_cast<Time>(rng.uniform_int(1, 200'000));
  e->key = k++;
  heap.push_back({e->at, e->key, e});
  std::push_heap(heap.begin(), heap.end(), RefLater{});
}

// `max_delta` is the re-arm horizon: the default 200 us mixes packet- and
// timer-scale delays across many buckets; kSlotNs - 1 re-arms into the
// slot being drained or the next one.
void sched_wheel_step(TimingWheel& wheel, Rng& rng, std::uint64_t& k,
                      Time max_delta = 200'000) {
  Event* e = wheel.pop_until(TimingWheel::kNever);
  e->at += static_cast<Time>(rng.uniform_int(1, max_delta));
  e->key = k++;
  wheel.push(e);
}

void BM_SchedHeapPushPop(benchmark::State& state) {
  EventPool pool;
  std::vector<RefItem> heap;
  Rng rng(1);
  std::uint64_t k = 0;
  sched_seed(pool, rng, k, static_cast<int>(state.range(0)), &heap,
             nullptr);
  for (auto _ : state) sched_heap_step(heap, rng, k);
}
BENCHMARK(BM_SchedHeapPushPop)->Arg(1024)->Arg(65536);

void BM_SchedWheelPushPop(benchmark::State& state) {
  EventPool pool;
  TimingWheel wheel;
  Rng rng(1);
  std::uint64_t k = 0;
  sched_seed(pool, rng, k, static_cast<int>(state.range(0)), nullptr,
             &wheel);
  for (auto _ : state) sched_wheel_step(wheel, rng, k);
}
BENCHMARK(BM_SchedWheelPushPop)->Arg(1024)->Arg(65536);

// Same seed, but every re-arm lands less than one slot ahead, so a push
// lands in the slot being drained (and pops through the drain's late
// heap) or in the next one — the path a dense incast bucket stresses.
void BM_SchedWheelDrainSlotPushPop(benchmark::State& state) {
  EventPool pool;
  TimingWheel wheel;
  Rng rng(1);
  std::uint64_t k = 0;
  sched_seed(pool, rng, k, static_cast<int>(state.range(0)), nullptr,
             &wheel);
  for (auto _ : state) {
    sched_wheel_step(wheel, rng, k, TimingWheel::kSlotNs - 1);
  }
}
BENCHMARK(BM_SchedWheelDrainSlotPushPop)->Arg(1024)->Arg(65536);

void BM_SizeDistSample(benchmark::State& state) {
  const SizeDist& d = SizeDist::by_name("google");
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.sample(rng));
  }
}
BENCHMARK(BM_SizeDistSample);

// Wall-clock ns/op of `op` after `warm` warmup iterations: the JSON rows
// can't come from google-benchmark's reporter without owning main, so
// time the same loops directly.
template <class Fn>
double ns_per_op(int iters, int warm, Fn&& op) {
  for (int i = 0; i < warm; ++i) op();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) op();
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::nano>(dt).count() / iters;
}

void write_micro_json() {
  constexpr int kPending = 65536;
  constexpr int kIters = 200'000;

  EventPool pool;
  std::vector<RefItem> heap;
  TimingWheel wheel;
  Rng rng(1);
  std::uint64_t k = 0;
  sched_seed(pool, rng, k, kPending, &heap, nullptr);
  sched_seed(pool, rng, k, kPending, nullptr, &wheel);
  const double heap_ns = ns_per_op(kIters, kIters / 10,
                                   [&] { sched_heap_step(heap, rng, k); });
  const double wheel_ns = ns_per_op(
      kIters, kIters / 10, [&] { sched_wheel_step(wheel, rng, k); });

  std::ostringstream body;
  body.precision(1);
  body << std::fixed;
  body << "{\n    \"bench\": \"micro_structures\",\n"
       << "    \"event_bytes\": " << sizeof(Event)
       << ",\n    \"packet_bytes\": " << sizeof(Packet)
       << ",\n    \"ack_info_bytes\": " << sizeof(AckInfo)
       << ",\n    \"packet_node_bytes\": " << sizeof(PacketNode)
       << ",\n    \"wheel\": {\"slot_ns\": " << TimingWheel::kSlotNs
       << ", \"slots\": " << TimingWheel::kSlots
       << ", \"horizon_ns\": " << TimingWheel::kHorizonNs << "}"
       << ",\n    \"sched_push_pop_ns\": {\"pending\": " << kPending
       << ", \"heap\": " << heap_ns << ", \"wheel\": " << wheel_ns
       << "}\n  }";
  bench::update_bench_json("micro", body.str());
}

}  // namespace
}  // namespace bfc

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  bfc::write_micro_json();
  return 0;
}
