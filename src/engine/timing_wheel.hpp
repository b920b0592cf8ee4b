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
//   batch        the bucket currently draining, heapified once into a
//                contiguous (at, key) min-heap of 24-byte items — pops
//                sift one bucket's entries instead of the whole pending
//                set.
//
// Determinism: pop order is *exactly* ascending (timestamp, key) — the
// same total order as the reference heap — for any interleaving of
// pushes and pops with at >= the last popped timestamp. Buckets partition
// events by timestamp range (slot s holds at in [s*kSlotNs, (s+1)*kSlotNs)
// and every bucket not yet drained is strictly later than the batch), so
// draining buckets in slot order with a per-bucket (at, key) heap yields
// the global order; same-timestamp ties resolve by key inside the batch
// heap regardless of arrival order. tests/test_timing_wheel.cpp checks
// this differentially against the reference heap, ties and far-horizon
// overflow included.
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
  void prefetch_next() const {
    if (!batch_.empty()) __builtin_prefetch(batch_.front().e);
  }

  // Schedules `e` by (e->at, e->key). Requires e->at >= the timestamp of
  // the last event popped (the engine clamps to the shard clock).
  void push(Event* e) {
    ++size_;
    const std::int64_t s = slot_of(e->at);
    if (s <= cur_) {
      // Current (or straggler) slot: straight into the live batch heap.
      batch_.push_back({e->at, e->key, e});
      std::push_heap(batch_.begin(), batch_.end(), Later{});
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

  // Exact earliest pending timestamp (kNever when empty). The batch is
  // never later than any bucket, buckets never later than the far heap.
  Time min_time() const {
    if (!batch_.empty()) return batch_.front().at;
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
      if (!batch_.empty()) {
        if (batch_.front().at >= limit) return nullptr;
        std::pop_heap(batch_.begin(), batch_.end(), Later{});
        Event* e = batch_.back().e;
        batch_.pop_back();
        --size_;
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
  // live batch, bucket chains, far heap — without disturbing the wheel.
  // Visit order is unspecified; the snapshot codec sorts by (at, key).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Item& it : batch_) fn(it.e);
    for (Event* chain : bucket_) {
      for (Event* e = chain; e != nullptr; e = e->next) fn(e);
    }
    for (const Item& it : far_) fn(it.e);
  }

 private:
  static constexpr std::int64_t kMask = kSlots - 1;

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

  // Advances the drain cursor to absolute slot `s`, heapifies its chain
  // into the batch, and pulls far events that are now inside the horizon.
  void load_slot(std::int64_t s) {
    cur_ = s;
    const auto b = static_cast<std::size_t>(s & kMask);
    occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    bucket_min_[b] = kNever;
    Event* e = bucket_[b];
    bucket_[b] = nullptr;
    while (e != nullptr) {
      Event* nxt = e->next;
      e->next = nullptr;
      batch_.push_back({e->at, e->key, e});
      e = nxt;
    }
    std::make_heap(batch_.begin(), batch_.end(), Later{});
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

  std::int64_t cur_ = 0;            // absolute slot the batch drains
  std::vector<Item> batch_;         // (at, key) min-heap of slot cur_
  std::vector<Event*> bucket_;      // intrusive chains, slot -> events
  std::vector<Time> bucket_min_;    // exact earliest `at` per bucket
  std::vector<std::uint64_t> occ_;  // occupancy bitmap over buckets
  std::vector<Item> far_;           // (at, key) min-heap past the horizon
  std::size_t size_ = 0;
};

}  // namespace bfc
