// Runtime flow state, the wire packet, and the device interface.
//
// A Flow is owned by the Network for the whole run; packets carry a raw
// pointer plus a sequence number, so copying a Packet into a pooled event
// is cheap and safe.
//
// Sharded-engine field discipline (see docs/ARCHITECTURE.md): a Flow's
// identity fields are immutable after setup, its sender state (including
// the lazily-resolved forward route cache) is only touched by the source
// NIC's shard and its receiver state (including the reverse route cache)
// only by the destination NIC's shard — that disjointness is what lets a
// flow span two shards without locks, and the cross-shard event handoff
// (inbox-ring release/acquire) orders the one-time route writes before
// any downstream read.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bloom.hpp"
#include "core/params.hpp"
#include "core/seq_bitmap.hpp"
#include "core/topology.hpp"
#include "core/vfid.hpp"
#include "sim/time.hpp"

namespace bfc {

// The sender NIC's per-flow sendability class (see core/flow_index.hpp).
// Stored on the Flow so the index's containers can hold bare pointers and
// still detect stale entries in O(1).
enum class SendState : std::uint8_t {
  kUntracked = 0,   // not at the sender index (pre-start or sender_done)
  kEligible,        // in the ready queue: a packet could go out right now
  kWindowBlocked,   // no new/retx data inside the window
  kPauseBlocked,    // the BFC pause snapshot covers this flow's VFID
  kPacingBlocked,   // pacing gate (next_send) is in the future
};

// FIFO of sequence numbers queued for repair. A flat vector with a head
// cursor: identical interface to the std::deque it replaces, but a
// default-constructed queue owns no memory (libstdc++'s deque eagerly
// allocates its first block, which flow setup used to pay per flow).
class RetxQueue {
 public:
  bool empty() const { return head_ == q_.size(); }
  std::uint32_t front() const { return q_[head_]; }
  void pop_front() {
    if (++head_ == q_.size()) clear();
  }
  void push_back(std::uint32_t s) { q_.push_back(s); }
  void clear() {
    q_.clear();
    head_ = 0;
  }
  bool contains(std::uint32_t s) const {
    for (std::size_t i = head_; i < q_.size(); ++i) {
      if (q_[i] == s) return true;
    }
    return false;
  }

  // Checkpoint plumbing (core/snapshot.hpp). The queue is serialized as
  // its pending slice [head_, end) and restored with head_ = 0 — the
  // already-popped prefix is unobservable, so the round trip is
  // behaviorally exact.
  std::vector<std::uint32_t> pending() const {
    return std::vector<std::uint32_t>(q_.begin() + static_cast<std::ptrdiff_t>(head_), q_.end());
  }
  void assign_pending(std::vector<std::uint32_t> pending) {
    q_ = std::move(pending);
    head_ = 0;
  }

 private:
  std::vector<std::uint32_t> q_;
  std::size_t head_ = 0;
};

struct Flow {
  // Identity, fixed at prepare time (cheap: no route, no heap).
  std::uint64_t uid = 0;
  FlowKey key;
  std::uint64_t bytes = 0;       // payload bytes to transfer
  std::uint32_t total_pkts = 0;
  bool incast = false;
  std::uint32_t vfid = 0;

  // Route cache, resolved on demand — a prepared-but-never-activated
  // flow owns no route. Fat-tree routes are fully determined by the flow
  // key plus at most two ECMP picks, so the cache is a packed 32-bit
  // TopoGraph path id rather than an 8-hop vector; the posting NIC
  // expands it against the graph at packet-stamp time. `path_id` (plus
  // the derived RTT/CC/RTO fields below) is filled by
  // Network::resolve_flow on the *source* NIC's shard at activation and
  // re-resolved there by Network::check_route when a fault moves the
  // plan's epoch; `rpath_id` and `rvfid` by
  // Network::resolve_reverse_route on the *destination* NIC's shard
  // (acks_in_data only), under the same epoch contract. Because the
  // fault plane rewrites these mid-flow, they are strictly single-shard
  // state: no other shard may read them. Downstream switches consume the
  // per-packet `Packet::route`/`ack_lat` snapshot instead, stamped on
  // the owning shard when the packet is posted.
  std::uint32_t path_id = 0xFFFFFFFFu;   // TopoGraph::kNoPath = unresolved
  std::uint32_t rpath_id = 0xFFFFFFFFu;  // reverse path (acks_in_data only)
  std::uint32_t rvfid = 0;       // VFID of the reverse direction
  Time base_rtt = 0;             // unloaded round trip
  Time ack_lat = 0;              // receiver -> sender control latency
  Time rto = 0;

  // Sender state (source NIC's shard only).
  double line_bps = 0;           // bottleneck line rate of the path
  double rate_bps = 0;           // pacing rate (congestion control output)
  std::uint32_t win_pkts = 0;    // window cap (packets)
  std::uint32_t next_seq = 0;    // next never-sent sequence
  std::uint32_t cum = 0;         // cumulative ack point
  std::uint32_t max_sent = 0;    // high-water mark, distinguishes retx
  std::uint32_t sacked_beyond_cum = 0;
  SeqBitmap acked;               // IRN only: selective-ack bitmap
  RetxQueue retx_q;              // sequences queued for repair
  Time next_send = 0;            // pacing gate
  Time last_progress = 0;
  Time last_rewind = -1;
  Time last_fast_retx = -1;
  // Retransmission timer (Nic::arm_rto): the latest deadline and the
  // event key minted for it. At most one RTO event per flow is pending
  // (rto_armed); re-arming only moves this pair, and the pending event,
  // when it fires early, re-posts itself at exactly (rto_at, rto_key).
  Time rto_at = 0;
  std::uint64_t rto_key = 0;
  bool sender_done = false;
  bool rto_armed = false;
  // Fault plane (source NIC's shard only): the FaultPlan epoch `path`
  // was resolved under (-1 = not yet resolved under a plan, so the first
  // send always validates), plus the capped exponential backoff state
  // for unreachable parks. parked_since feeds the recovery-latency
  // histogram: first park -> successful re-resolve.
  std::int32_t route_epoch = -1;
  std::uint8_t backoff_exp = 0;
  Time parked_since = -1;
  // FlowIndex bookkeeping (source NIC's shard only): the cached
  // sendability class and which index containers still hold an entry for
  // this flow (entries outlive transitions and are dropped lazily).
  SendState send_state = SendState::kUntracked;
  std::uint8_t index_slots = 0;  // FlowIndex::kIn* bits
  // Intrusive link for the FlowIndex ready FIFO. kInEligible guarantees
  // at-most-once membership, so a single forward link suffices and an
  // idle NIC's FIFO costs no heap at all (PR 6 measured the old per-NIC
  // deque chunk at ~0.5 KB x hosts). Meaningful only while kInEligible
  // is set; not serialized (the snapshot stores the FIFO as a uid list).
  Flow* elig_next = nullptr;

  // Congestion-control scratch (interpreted per scheme, see core/cc.hpp).
  double cc_target = 0;
  double cc_alpha = 1;
  Time cc_last_cut = 0;
  Time cc_last_inc = 0;
  double tm_prev_rtt = 0;
  double tm_grad = 0;
  Time hpcc_last_dec = 0;

  // Reverse-route fault epoch (destination NIC's shard only) — same
  // contract as route_epoch, for `rpath` under acks_in_data.
  std::int32_t rroute_epoch = -1;

  // Receiver state (destination NIC's shard only): a handle into the
  // destination NIC's ReceiverSlab, allocated on the first data arrival.
  // kRcvNone = never received anything; kRcvDone = fully delivered, slot
  // released (late duplicates ack cum = total_pkts without state).
  static constexpr std::int32_t kRcvNone = -1;
  static constexpr std::int32_t kRcvDone = -2;
  std::int32_t rcv_slot = kRcvNone;

  int payload_of(std::uint32_t seq) const {
    if (seq + 1 < total_pkts) return kPayloadBytes;
    const std::uint64_t rest =
        bytes - static_cast<std::uint64_t>(total_pkts - 1) * kPayloadBytes;
    return static_cast<int>(rest == 0 ? kPayloadBytes : rest);
  }
  std::int64_t remaining_bytes() const {
    return static_cast<std::int64_t>(bytes) -
           static_cast<std::int64_t>(cum) * kPayloadBytes;
  }
};

struct Packet {
  Flow* flow = nullptr;
  std::uint32_t seq = 0;
  std::uint32_t vfid = 0;        // queueing identity at switches; the
                                 // forward VFID for data, reverse for acks
  int wire = 0;                  // bytes on the wire (payload + header)
  int hop = 0;                   // index into `route` (next transmitter)
  bool is_ack = false;           // ack riding the data path (acks_in_data)
  bool ce = false;               // ECN congestion experienced
  bool single = false;           // single-packet flow (HPQ candidate)
  bool nack = false;             // ack payload: GBN out-of-order signal
  std::uint32_t cum = 0;         // ack payload: cumulative ack point
  std::int64_t prio = 0;         // pFabric: remaining bytes at send time
  float util = 0;                // HPCC INT: max link utilization seen
  Time ts = 0;                   // send timestamp (Timely RTT)
  int buf_in = -1;               // ingress port at the current switch
  bool tracked = false;          // holds a flow-table reference (BFC/SFQ)
  // Route snapshot, stamped by the posting NIC (sender for data, receiver
  // for acks_in_data acks): the egress port each transmitter on the path
  // uses, plus the path's control-channel ack latency. Switches and the
  // receiver read these instead of the Flow's route cache — once the
  // fault plane can re-resolve a route mid-flow, that cache is mutable
  // single-shard state, and an in-flight packet must keep following the
  // (possibly now-dead, then blackholing) route it was launched on. The
  // snapshot also keeps `hop` consistent when a reroute shortens the
  // path under a packet that already traveled past the detour point.
  std::uint16_t route[HopVec::kMaxHops] = {};
  Time ack_lat = 0;

  void stamp_route(const HopVec& path) {
    for (std::size_t i = 0; i < path.size(); ++i) {
      route[i] = static_cast<std::uint16_t>(path[i].port);
    }
  }
};

struct AckInfo {
  std::uint64_t uid = 0;
  std::uint32_t cum = 0;
  std::uint32_t sack = 0;        // the sequence that triggered this ack
  bool nack = false;             // GBN receiver saw an out-of-order packet
  bool ce = false;
  float util = 0;
  Time ts = 0;                   // echoed send timestamp
};

class Network;
class Shard;

// Anything a link can deliver to: a Switch or a host NIC. Owns its place
// in the sharded engine: all of a device's events run on `shard_`.
class Device {
 public:
  Device(Network& net, int node);  // defined in network.hpp
  virtual ~Device() = default;

  // `pkt` is the delivery event's arena slot: the device may mutate it in
  // place (stamp ECN/INT feedback, record the ingress port) instead of
  // copying — the slot is dead the moment the handler returns.
  virtual void arrive(Packet& pkt, int in_port) = 0;
  // BFC pause frame: the peer behind `egress_port` updated its paused-VFID
  // Bloom snapshot.
  virtual void on_bfc_snapshot(int egress_port,
                               std::shared_ptr<const BloomBits> bits) = 0;
  // PFC: the peer behind `egress_port` paused/resumed the whole link.
  virtual void on_pfc(int egress_port, bool paused) = 0;
  // Fault plane: the link behind `port` changed state (a pre-seeded
  // FaultPlan transition, delivered on this device's own shard). The
  // switch drains/blackholes and reaps pause state; the NIC gates its
  // transmitter. Default: ignore faults.
  virtual void on_link_state(int port, bool up) {
    (void)port;
    (void)up;
  }

  Network& net() { return net_; }
  int id() const { return node_; }
  Shard& shard() { return *shard_; }

 protected:
  Network& net_;
  const int node_;
  Shard* const shard_;
};

}  // namespace bfc
