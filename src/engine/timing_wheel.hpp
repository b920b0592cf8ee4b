// Two-level hierarchical timing wheel: the per-shard event scheduler.
//
// The binary heap it replaces pays an O(log n) sift over a cache-cold
// working set on every push/pop; with tens of thousands of pending events
// per shard (1024-host runs) the scheduler itself was the bottleneck.
// Almost all events land within a bounded horizon of the shard clock —
// max link propagation + serialization + the BFC refresh period — so a
// calendar layout makes both operations O(1) amortized:
//
//   near wheel   kSlots power-of-two buckets, kSlotNs wide each
//                (geometry below: 4096 x 512 ns = ~2.1 ms horizon).
//                A bucket is an intrusive Event chain (Event::next):
//                push is two pointer writes + a bitmap bit.
//   far heap     rare long-delay events (ms-scale RTOs, far pre-seeded
//                flow starts) beyond the horizon; a plain binary heap,
//                migrated bucket-ward as the wheel turns past them.
//   drain        the bucket currently draining, sorted once into a
//                contiguous run of 24-byte (at, key) items, descending so
//                a pop is a pop_back; events pushed into the draining
//                slot meanwhile go to a small (at, key) min-heap `late`,
//                and each pop takes the earlier of the two heads.
//                One sort per bucket is cheaper than a data-dependent
//                O(log m) heap sift on every pop; only the late
//                arrivals, a fraction of the bucket, sift.
//
// Determinism: pop order is *exactly* ascending (timestamp, key) — the
// same total order as the reference heap — for any interleaving of
// pushes and pops with at >= the last popped timestamp. Buckets partition
// events by timestamp range (slot s holds at in [s*kSlotNs, (s+1)*kSlotNs)
// and every bucket not yet drained is strictly later than the drain), so
// draining buckets in slot order yields the global order. Inside the
// drain, the run and the late heap are each ordered by (at, key) and a
// pop compares their heads; keys are unique, so the heads never tie and
// same-timestamp events resolve by key regardless of arrival order.
// unpop() puts back a window the engine popped but chose not to run by
// appending it to the run's earliest end: every popped event precedes
// everything still pending, so the run stays sorted and the put-back
// window never floods the late heap. tests/test_timing_wheel.cpp checks
// all of this differentially against the reference heap, ties,
// draining-slot pushes, unpop and far-horizon overflow included.
//
// min_time() is exact (not a bound): the engine's conservative-lookahead
// window start is the cross-shard minimum of it, and an overestimate
// would widen a window past what causality allows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "engine/event.hpp"
#include "sim/time.hpp"

namespace bfc {

class TimingWheel {
 public:
  // Geometry. kSlotBits trades batch size against wheel memory. 4096
  // buckets of 512 ns cover every intra-fabric delay (1 us links, ~120 ns
  // MTU serialization at 100 Gbps, the 5 us BFC refresh) and the lossless
  // family's ~1 ms RoCE-style RTO, so each flow's one pending RTO event
  // (Nic::arm_rto) stays out of the O(log n) far heap. Buckets are dense:
  // perfbench incast_bfc (128 hosts, 1 shard) drains ~1,400 events per
  // 512 ns bucket (3.87M events over 1.4 ms), and a 2-shard t3_1024 shard
  // about as many. Only multi-ms timers and far-future pre-seeded
  // arrivals overflow.
  static constexpr int kSlotBits = 9;               // 512 ns per slot
  static constexpr int kWheelBits = 12;             // 4096 slots -> ~2.1 ms
  static constexpr int kSlots = 1 << kWheelBits;
  static constexpr Time kSlotNs = Time{1} << kSlotBits;
  static constexpr Time kHorizonNs = Time{kSlots} << kSlotBits;
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  struct Item {
    Time at;
    std::uint64_t key;
    Event* e;
  };
  // Max-heap comparator putting the earliest (at, key) at the front —
  // the same order as the engine's event key contract.
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.key > b.key;
    }
  };

  // Exact (at, key)-ordered drain of an event set that is mostly known
  // before draining starts: a run sorted once, descending so the earliest
  // is at the back, plus a min-heap `late_` for events that arrive while
  // it drains. The wheel drains its current bucket through one; a stolen
  // batch (engine/sharded_sim.hpp) drains its window slice through
  // another.
  class Drain {
   public:
    bool empty() const { return run_.empty() && late_.empty(); }
    // Earliest pending timestamp; requires !empty().
    Time front_at() const {
      return late_first() ? late_.front().at : run_.back().at;
    }

    // Any event whose timestamp is >= the last one popped.
    void push(Event* e) {
      late_.push_back({e->at, e->key, e});
      std::push_heap(late_.begin(), late_.end(), Later{});
    }
    // Puts `e` at the run's earliest end. Requires (e->at, e->key) to
    // precede everything pending, so the run stays sorted for free.
    void push_earliest(Event* e) { run_.push_back({e->at, e->key, e}); }
    // Appends the intrusive chain `e` (linked by Event::next, unlinked
    // here) to the run and sorts it. Requires empty().
    void load(Event* e) {
      while (e != nullptr) {
        Event* nxt = e->next;
        e->next = nullptr;
        run_.push_back({e->at, e->key, e});
        e = nxt;
      }
      std::sort(run_.begin(), run_.end(), Later{});
    }

    // Pops the earliest event; requires !empty().
    Event* pop() { return take(late_first()); }
    // Pops the earliest event if its timestamp is < `limit`; nullptr
    // (state intact) otherwise, or when empty.
    Event* pop_until(Time limit) {
      const bool late = late_first();
      if (!late && run_.empty()) return nullptr;
      if ((late ? late_.front().at : run_.back().at) >= limit) return nullptr;
      return take(late);
    }

    // Warms both heads: either may pop next.
    void prefetch() const {
      if (!run_.empty()) __builtin_prefetch(run_.back().e);
      if (!late_.empty()) __builtin_prefetch(late_.front().e);
    }

    template <class Fn>
    void for_each(Fn&& fn) const {
      for (const Item& it : run_) fn(it.e);
      for (const Item& it : late_) fn(it.e);
    }

   private:
    // True when the late heap's head precedes the run's (keys are unique,
    // so the two heads never tie).
    bool late_first() const {
      return !late_.empty() &&
             (run_.empty() || Later{}(run_.back(), late_.front()));
    }
    Event* take(bool late) {
      if (late) {
        Event* e = late_.front().e;
        std::pop_heap(late_.begin(), late_.end(), Later{});
        late_.pop_back();
        return e;
      }
      Event* e = run_.back().e;
      run_.pop_back();
      return e;
    }

    std::vector<Item> run_;   // descending (at, key): back() is earliest
    std::vector<Item> late_;  // (at, key) min-heap of arrivals mid-drain
  };

  TimingWheel()
      : bucket_(kSlots, nullptr),
        bucket_min_(kSlots, kNever),
        occ_(kSlots / 64, 0) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // Events parked past the bucket horizon (the far heap); near occupancy
  // is size() - far_size(). Telemetry only.
  std::size_t far_size() const { return far_.size(); }

  // Warms the cache line of the event most likely to pop next while the
  // caller is still dispatching the current one.
  void prefetch_next() const { drain_.prefetch(); }

  // Schedules `e` by (e->at, e->key). Requires e->at >= the timestamp of
  // the last event popped (the engine clamps to the shard clock).
  void push(Event* e) {
    ++size_;
    const std::int64_t s = slot_of(e->at);
    if (s <= cur_) {
      // Current (or straggler) slot: into the drain's late heap.
      drain_.push(e);
      return;
    }
    if (s < cur_ + kSlots) {
      const auto b = static_cast<std::size_t>(s & kMask);
      if (bucket_[b] == nullptr) {
        occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
        bucket_min_[b] = e->at;
      } else if (e->at < bucket_min_[b]) {
        bucket_min_[b] = e->at;
      }
      e->next = bucket_[b];
      bucket_[b] = e;
      return;
    }
    far_.push_back({e->at, e->key, e});
    std::push_heap(far_.begin(), far_.end(), Later{});
  }

  // Returns a window of just-popped events, in the ascending order they
  // popped in, to the wheel: they go back onto the drain's sorted run,
  // earliest last. Valid because every popped event precedes everything
  // still pending; re-pushing them instead would land them all in the
  // late heap and bring back a sift per pop.
  void unpop(const std::vector<Event*>& asc) {
    for (auto it = asc.rbegin(); it != asc.rend(); ++it) {
      drain_.push_earliest(*it);
    }
    size_ += asc.size();
  }

  // Exact earliest pending timestamp (kNever when empty). The drain is
  // never later than any bucket, buckets never later than the far heap.
  Time min_time() const {
    if (!drain_.empty()) return drain_.front_at();
    const std::int64_t s = next_occupied_slot();
    if (s >= 0) return bucket_min_[static_cast<std::size_t>(s & kMask)];
    if (!far_.empty()) return far_.front().at;
    return kNever;
  }

  // Pops the globally earliest event if its timestamp is < `limit`;
  // returns nullptr (state intact) otherwise. Repeated calls with
  // non-decreasing limits drain in exact (at, key) order.
  Event* pop_until(Time limit) {
    for (;;) {
      if (!drain_.empty()) {
        Event* e = drain_.pop_until(limit);
        if (e != nullptr) --size_;
        return e;
      }
      if (size_ == 0) return nullptr;
      const std::int64_t s = next_occupied_slot();
      if (s >= 0) {
        if (bucket_min_[static_cast<std::size_t>(s & kMask)] >= limit) {
          return nullptr;  // nothing anywhere is earlier than this bucket
        }
        load_slot(s);
        continue;
      }
      // Only far events remain: turn the wheel so the earliest becomes
      // near, then migration refills a bucket and the loop retries.
      if (far_.front().at >= limit) return nullptr;
      cur_ = slot_of(far_.front().at) - 1;
      migrate_far();
    }
  }

  // Checkpoint plumbing (core/snapshot.hpp): visits every pending event —
  // drain (run and late heap), bucket chains, far heap — without
  // disturbing the wheel. Visit order is unspecified; the snapshot codec
  // sorts by (at, key).
  template <class Fn>
  void for_each(Fn&& fn) const {
    drain_.for_each(fn);
    for (Event* chain : bucket_) {
      for (Event* e = chain; e != nullptr; e = e->next) fn(e);
    }
    for (const Item& it : far_) fn(it.e);
  }

 private:
  static constexpr std::int64_t kMask = kSlots - 1;

  static std::int64_t slot_of(Time at) { return at >> kSlotBits; }

  // Smallest absolute occupied slot in (cur_, cur_ + kSlots), or -1.
  // Bitmap scan: because occupied slots are unique mod kSlots within the
  // horizon, the first set bit at/after (cur_ + 1) in cyclic order is the
  // earliest slot.
  std::int64_t next_occupied_slot() const {
    const auto start = static_cast<std::size_t>((cur_ + 1) & kMask);
    std::size_t w = start >> 6;
    std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t n = 0; n <= occ_.size(); ++n) {
      if (word != 0) {
        const auto bit = static_cast<std::size_t>(__builtin_ctzll(word));
        const std::size_t b = (w << 6) | bit;
        const std::int64_t off =
            static_cast<std::int64_t>((b - start) & static_cast<std::size_t>(kMask));
        return cur_ + 1 + off;
      }
      w = (w + 1) % occ_.size();
      word = occ_[w];
    }
    return -1;
  }

  // Advances the drain cursor to absolute slot `s`, sorts its chain into
  // the (empty) drain, and pulls far events that are now inside the
  // horizon.
  void load_slot(std::int64_t s) {
    cur_ = s;
    const auto b = static_cast<std::size_t>(s & kMask);
    occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    bucket_min_[b] = kNever;
    Event* chain = bucket_[b];
    bucket_[b] = nullptr;
    drain_.load(chain);
    migrate_far();
  }

  void migrate_far() {
    while (!far_.empty() && slot_of(far_.front().at) < cur_ + kSlots) {
      std::pop_heap(far_.begin(), far_.end(), Later{});
      Event* e = far_.back().e;
      far_.pop_back();
      --size_;  // push() re-counts it
      push(e);
    }
  }

  std::int64_t cur_ = 0;            // absolute slot the drain holds
  Drain drain_;                     // slot cur_ (and earlier stragglers)
  std::vector<Event*> bucket_;      // intrusive chains, slot -> events
  std::vector<Time> bucket_min_;    // exact earliest `at` per bucket
  std::vector<std::uint64_t> occ_;  // occupancy bitmap over buckets
  std::vector<Item> far_;           // (at, key) min-heap past the horizon
  std::size_t size_ = 0;
};

}  // namespace bfc
