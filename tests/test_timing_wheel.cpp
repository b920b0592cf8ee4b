// Differential test of the engine scheduler: the hierarchical timing
// wheel must drain in *exactly* the reference heap's (timestamp, key)
// order for any workload the engine can produce — bulk pre-seeding,
// interleaved push/pop with pushes at the current clock (same-timestamp
// ties included), windowed pops with limits, far-horizon overflow
// (ms-scale RTO-like delays that cross the near wheel's range), pushes
// into the slot being drained (the late heap), and windows popped then
// put back with unpop(). The stolen-batch drain (TimingWheel::Drain
// seeded as a sorted run) is checked against the same reference.
#include "engine/timing_wheel.hpp"

#include <algorithm>
#include <vector>

#include "sim/rng.hpp"
#include "test_util.hpp"

using namespace bfc;

namespace {

// The PR-2 scheduler the wheel replaced: a binary heap of value items.
struct RItem {
  Time at;
  std::uint64_t key;
  Event* e;
};
struct RLater {
  bool operator()(const RItem& a, const RItem& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.key > b.key;
  }
};
struct RefHeap {
  std::vector<RItem> h;

  void push(Event* e) {
    h.push_back({e->at, e->key, e});
    std::push_heap(h.begin(), h.end(), RLater{});
  }
  Time min_time() const {
    return h.empty() ? TimingWheel::kNever : h.front().at;
  }
  Event* pop_until(Time limit) {
    if (h.empty() || h.front().at >= limit) return nullptr;
    std::pop_heap(h.begin(), h.end(), RLater{});
    Event* e = h.back().e;
    h.pop_back();
    return e;
  }
};

Event* make_event(EventPool& pool, Time at, std::uint64_t key) {
  Event* e = pool.alloc();
  e->at = at;
  e->key = key;
  return e;
}

// Engine-like key: (entity << 32) | per-entity sequence, entities drawn
// at random so key order is uncorrelated with push order.
std::uint64_t next_key(Rng& rng, std::vector<std::uint32_t>& seq) {
  const auto entity =
      static_cast<std::size_t>(rng.uniform_int(0, 63));
  return (static_cast<std::uint64_t>(entity) << 32) | seq[entity]++;
}

void test_bulk_drain() {
  EventPool pool;
  TimingWheel wheel;
  RefHeap ref;
  Rng rng(7);
  std::vector<std::uint32_t> seq(64, 0);
  // Timestamps span 3x the near horizon (far overflow) and repeat often
  // (ties resolved by key alone).
  for (int i = 0; i < 20000; ++i) {
    const Time at =
        static_cast<Time>(rng.uniform_int(0, 16)) * (TimingWheel::kHorizonNs / 8) +
        static_cast<Time>(rng.uniform_int(0, 1000));
    Event* e = make_event(pool, at, next_key(rng, seq));
    wheel.push(e);
    ref.push(e);
  }
  CHECK(wheel.size() == 20000);
  Time last_at = -1;
  std::uint64_t last_key = 0;
  int n = 0;
  for (;;) {
    CHECK(wheel.min_time() == ref.min_time());
    Event* w = wheel.pop_until(TimingWheel::kNever);
    Event* r = ref.pop_until(TimingWheel::kNever);
    CHECK(w == r);
    if (w == nullptr) break;
    // Strictly ascending (at, key): ties ordered by key.
    CHECK(w->at > last_at || (w->at == last_at && w->key > last_key));
    last_at = w->at;
    last_key = w->key;
    ++n;
  }
  CHECK(n == 20000);
  CHECK(wheel.empty());
}

void test_interleaved_windows() {
  EventPool pool;
  TimingWheel wheel;
  RefHeap ref;
  Rng rng(11);
  std::vector<std::uint32_t> seq(64, 0);
  Time now = 0;  // engine invariant: pushes never precede the last pop
  int pops = 0, pushes = 0;
  auto push_one = [&] {
    // Offset mix: exact ties at `now`, sub-slot, intra-horizon, and far
    // (RTO-like, several horizons out).
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    Time off = 0;
    if (kind == 0) {
      off = 0;
    } else if (kind <= 4) {
      off = static_cast<Time>(rng.uniform_int(0, TimingWheel::kSlotNs * 4));
    } else if (kind <= 8) {
      off = static_cast<Time>(rng.uniform_int(0, TimingWheel::kHorizonNs));
    } else {
      off = static_cast<Time>(
          rng.uniform_int(TimingWheel::kHorizonNs,
                          4 * TimingWheel::kHorizonNs));
    }
    Event* e = make_event(pool, now + off, next_key(rng, seq));
    wheel.push(e);
    ref.push(e);
    ++pushes;
  };
  for (int i = 0; i < 512; ++i) push_one();
  for (int round = 0; round < 4000; ++round) {
    CHECK(wheel.min_time() == ref.min_time());
    // A conservative-PDES-style window: drain everything below a limit a
    // little past the pending minimum, pushing as we go.
    const Time base = ref.min_time();
    if (base == TimingWheel::kNever) break;
    const Time limit =
        base + static_cast<Time>(rng.uniform_int(0, 3 * TimingWheel::kSlotNs));
    for (;;) {
      Event* w = wheel.pop_until(limit);
      Event* r = ref.pop_until(limit);
      CHECK(w == r);
      if (w == nullptr) break;
      CHECK(w->at >= now);
      now = w->at;
      ++pops;
      while (rng.uniform() < 0.45 && pushes < 30000) push_one();
    }
  }
  // Drain what's left and confirm both schedulers agree to the end.
  for (;;) {
    Event* w = wheel.pop_until(TimingWheel::kNever);
    Event* r = ref.pop_until(TimingWheel::kNever);
    CHECK(w == r);
    if (w == nullptr) break;
    ++pops;
  }
  CHECK(pops == pushes);
  CHECK(wheel.empty() && wheel.size() == 0);
}

void test_far_only_and_limits() {
  EventPool pool;
  TimingWheel wheel;
  // Only far-horizon events (the RTO pattern): the wheel must turn
  // across empty space and still respect pop limits exactly.
  std::vector<Event*> evs;
  for (int i = 9; i >= 0; --i) {
    Event* e = make_event(pool, (i + 2) * TimingWheel::kHorizonNs,
                          static_cast<std::uint64_t>(i));
    evs.push_back(e);
    wheel.push(e);
  }
  CHECK(wheel.min_time() == 2 * TimingWheel::kHorizonNs);
  // Limit below the minimum: nothing pops, state intact.
  CHECK(wheel.pop_until(TimingWheel::kHorizonNs) == nullptr);
  CHECK(wheel.size() == 10);
  for (int i = 0; i < 10; ++i) {
    Event* e = wheel.pop_until(TimingWheel::kNever);
    CHECK(e != nullptr);
    CHECK(e->at == (i + 2) * TimingWheel::kHorizonNs);
  }
  CHECK(wheel.empty());
  CHECK(wheel.min_time() == TimingWheel::kNever);
  CHECK(wheel.pop_until(TimingWheel::kNever) == nullptr);
}

// Most pushes land within one slot of the clock (offsets 0..kSlotNs), so
// many go to the draining slot's late heap while its sorted run is still
// being popped, and pops alternate between the two heads.
void test_draining_slot_pushes() {
  EventPool pool;
  TimingWheel wheel;
  RefHeap ref;
  Rng rng(23);
  std::vector<std::uint32_t> seq(64, 0);
  Time now = 0;
  int pops = 0, pushes = 0;
  auto push_one = [&] {
    const Time off =
        rng.uniform() < 0.85
            ? static_cast<Time>(rng.uniform_int(0, TimingWheel::kSlotNs))
            : static_cast<Time>(rng.uniform_int(0, 8 * TimingWheel::kSlotNs));
    Event* e = make_event(pool, now + off, next_key(rng, seq));
    wheel.push(e);
    ref.push(e);
    ++pushes;
  };
  for (int i = 0; i < 2000; ++i) push_one();
  while (ref.min_time() != TimingWheel::kNever) {
    CHECK(wheel.min_time() == ref.min_time());
    CHECK(wheel.size() == ref.h.size());
    const Time limit =
        ref.min_time() +
        static_cast<Time>(rng.uniform_int(0, TimingWheel::kSlotNs / 2));
    for (;;) {
      Event* w = wheel.pop_until(limit);
      Event* r = ref.pop_until(limit);
      CHECK(w == r);
      if (w == nullptr) break;
      CHECK(w->at >= now);
      now = w->at;
      ++pops;
      // ~1.2 pushes per pop while under budget: the pending set grows,
      // then drains out through the late heap.
      while (rng.uniform() < 0.55 && pushes < 60000) push_one();
    }
  }
  CHECK(pops == pushes);
  CHECK(wheel.empty());
}

// The engine's split_window put-back: pop a whole window, hand it back
// with unpop(), then drain. The order must equal a reference that never
// popped the window at all, including late-heap events pending when the
// window was taken and pushes made after the put-back.
void test_unpop_round_trip() {
  EventPool pool;
  TimingWheel wheel;
  RefHeap ref;
  Rng rng(31);
  std::vector<std::uint32_t> seq(64, 0);
  Time now = 0;
  int pushes = 0, pops = 0;
  auto push_one = [&](Time max_off) {
    Event* e = make_event(pool,
                          now + static_cast<Time>(rng.uniform_int(0, max_off)),
                          next_key(rng, seq));
    wheel.push(e);
    ref.push(e);
    ++pushes;
  };
  for (int i = 0; i < 3000; ++i) push_one(TimingWheel::kHorizonNs / 64);
  std::vector<Event*> window;
  for (int round = 0; round < 300 && ref.min_time() != TimingWheel::kNever;
       ++round) {
    // Window spanning several slots, like a steal window.
    const Time limit =
        ref.min_time() +
        static_cast<Time>(rng.uniform_int(0, 6 * TimingWheel::kSlotNs));
    window.clear();
    while (Event* w = wheel.pop_until(limit)) window.push_back(w);
    wheel.unpop(window);
    CHECK(wheel.size() == ref.h.size());
    CHECK(wheel.min_time() == ref.min_time());
    // Now really run part of the window, pushing as the engine would.
    const std::size_t run = window.size() / 2;
    for (std::size_t i = 0; i < run; ++i) {
      Event* w = wheel.pop_until(limit);
      Event* r = ref.pop_until(limit);
      CHECK(w == r);
      CHECK(i > 0 || w == window[0]);
      now = w->at;
      ++pops;
      if (rng.uniform() < 0.6) push_one(2 * TimingWheel::kSlotNs);
    }
  }
  for (;;) {
    Event* w = wheel.pop_until(TimingWheel::kNever);
    Event* r = ref.pop_until(TimingWheel::kNever);
    CHECK(w == r);
    if (w == nullptr) break;
    ++pops;
  }
  CHECK(pops == pushes);
  CHECK(wheel.empty());
}

// for_each (the snapshot codec's view) must visit every pending event
// exactly once while all four homes are occupied: the drain's sorted run,
// its late heap, bucket chains and the far heap.
void test_for_each_covers_all_homes() {
  EventPool pool;
  TimingWheel wheel;
  RefHeap ref;
  std::uint64_t key = 0;
  auto push_at = [&](Time at) {
    Event* e = make_event(pool, at, key++);
    wheel.push(e);
    ref.push(e);
  };
  for (int i = 0; i < 10; ++i) push_at(100 + i);   // slot 0
  for (int i = 0; i < 6; ++i) push_at(3 * TimingWheel::kSlotNs + i);
  for (int i = 0; i < 4; ++i) push_at(3 * TimingWheel::kHorizonNs + i);
  // The first pop sorts slot 0 into the run; pushes at the drain clock
  // then go to the late heap.
  Event* first = wheel.pop_until(TimingWheel::kNever);
  CHECK(first == ref.pop_until(TimingWheel::kNever));
  for (int i = 0; i < 5; ++i) push_at(first->at + 50 + i);
  CHECK(wheel.far_size() == 4);
  CHECK(wheel.size() == 24);

  std::vector<const Event*> seen;
  wheel.for_each([&seen](const Event* e) { seen.push_back(e); });
  CHECK(seen.size() == wheel.size());
  std::sort(seen.begin(), seen.end());
  CHECK(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
  for (const RItem& it : ref.h) {
    CHECK(std::binary_search(seen.begin(), seen.end(), it.e));
  }
  for (;;) {
    Event* w = wheel.pop_until(TimingWheel::kNever);
    CHECK(w == ref.pop_until(TimingWheel::kNever));
    if (w == nullptr) break;
  }
}

// The stolen-batch drain on its own: seeded earliest-last through
// push_earliest (as split_window partitions a sorted window), then
// popped with same-window posts interleaved, ties at the clock included.
void test_drain_seeded_run() {
  EventPool pool;
  TimingWheel::Drain drain;
  RefHeap ref;
  Rng rng(43);
  std::vector<std::uint32_t> seq(64, 0);
  std::vector<Event*> sorted;
  for (int i = 0; i < 4000; ++i) {
    Event* e = make_event(pool, static_cast<Time>(rng.uniform_int(0, 5000)),
                          next_key(rng, seq));
    sorted.push_back(e);
    ref.push(e);
  }
  std::sort(sorted.begin(), sorted.end(), [](const Event* a, const Event* b) {
    return a->at != b->at ? a->at < b->at : a->key < b->key;
  });
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    drain.push_earliest(*it);
  }
  int pops = 0, pushes = 4000;
  while (!drain.empty()) {
    CHECK(drain.front_at() == ref.min_time());
    Event* w = drain.pop();
    CHECK(w == ref.pop_until(TimingWheel::kNever));
    ++pops;
    if (rng.uniform() < 0.5 && pushes < 12000) {
      Event* e = make_event(
          pool, w->at + static_cast<Time>(rng.uniform_int(0, 300)),
          next_key(rng, seq));
      drain.push(e);
      ref.push(e);
      ++pushes;
    }
  }
  CHECK(drain.pop_until(TimingWheel::kNever) == nullptr);
  CHECK(pops == pushes);
  CHECK(ref.h.empty());
}

}  // namespace

int main() {
  test_bulk_drain();
  test_interleaved_windows();
  test_far_only_and_limits();
  test_draining_slot_pushes();
  test_unpop_round_trip();
  test_for_each_covers_all_homes();
  test_drain_seeded_run();
  return 0;
}
