// The host NIC: windowed, rate-paced sender plus the receiver logic
// (delivery, acks, GBN/IRN loss recovery). One port, toward the ToR.
//
// BFC treats the NIC as the first hop: the ToR's pause snapshots arrive
// here and gate individual flows; PFC gates the whole uplink. All NIC
// events run on the NIC's shard; acks either ride the contention-free
// control channel (default) or, under `acks_in_data`, real reverse-path
// packets through the fabric queues — and then they share the uplink with
// data: every frame, ack or data, serializes through the same egress
// pacer (acks first, they are 64 B), so a busy sender delays its own acks
// the way real reverse-path contention would.
//
// Sending is driven by the eligible-flow index (core/flow_index.hpp): a
// kick pops the next ready flow in O(1) instead of re-scanning the whole
// active list, and receiver bookkeeping is slab-allocated lazily on the
// first data arrival (core/receiver_slab.hpp) so flow setup costs no
// receiver memory. A flow's route (and everything derived from it)
// resolves on activation via Network::resolve_flow — a prepared flow
// owns no route.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/flow_index.hpp"
#include "core/packet.hpp"
#include "core/receiver_slab.hpp"
#include "engine/event.hpp"
#include "sim/time.hpp"

namespace bfc {

class Network;

struct NicStats {
  std::int64_t rto_fires = 0;
  std::int64_t data_retx = 0;
  std::int64_t pkts_sent = 0;
  std::int64_t delivered_payload = 0;  // fresh payload bytes received here
  std::int64_t acks_data_path = 0;     // acks transmitted via the uplink
                                       // pacer (acks_in_data only)
  std::int64_t acks_deferred = 0;      // acks that had to wait for the
                                       // uplink (busy / paused / queued)
  // Fault plane (all deterministic: pure functions of the FaultPlan and
  // the simulation, compared by the determinism fuzz rig).
  std::int64_t reroutes = 0;           // send-path re-resolves that moved
                                       // the flow onto a different path
  std::int64_t unreachable_parks = 0;  // sends skipped: no surviving path
  std::int64_t blackholed = 0;         // packets that died on the wire of
                                       // this NIC's dead access link
};

class Nic : public Device {
 public:
  Nic(Network& net, int node);

  const NicStats& stats() const { return stats_; }

  // Sender side.
  void add_flow(Flow* f);
  void on_ack(const AckInfo& ack);

  // Device side (receiver + backpressure).
  void arrive(Packet& pkt, int in_port) override;
  void on_bfc_snapshot(int egress_port,
                       std::shared_ptr<const BloomBits> bits) override;
  void on_pfc(int egress_port, bool paused) override;
  // Fault plane: a dead access link darkens the transmitter (kick gates
  // on it; RTO state simply holds) and blackholes in-flight arrivals.
  void on_link_state(int port, bool up) override;

  // Pooled event handler: activates a prepared flow (obj=Nic,
  // u.misc.p1=Flow).
  static void ev_flow_start(Event& e);

  // Receiver-slab introspection (memory assertions, reports).
  std::size_t receiver_slots() const { return rcv_slab_.live_slots(); }
  std::size_t receiver_slots_hw() const { return rcv_slab_.hw_slots(); }
  std::size_t receiver_bytes() const { return rcv_slab_.bytes(); }
  const FlowIndex& flow_index() const { return index_; }

 private:
  friend class Snapshot;  // checkpoint/restore of sender/receiver state

  static void ev_tx_done(Event& e);  // obj=Nic
  static void ev_wake(Event& e);     // obj=Nic, u.timer.i0=gate time
  static void ev_rto(Event& e);      // obj=Nic, u.misc.p1=Flow
  static void ev_ack(Event& e);      // obj=Nic, u.ack=AckNode handle

  void kick();
  void arm_wake(Time now);
  // The one way onto the wire: occupies the uplink for `pkt`'s
  // serialization time (busy_ until ev_tx_done) and schedules delivery
  // at the peer. Data and acks_in_data acks both serialize through
  // here, which is what makes the uplink arbitration real.
  void transmit(const Packet& pkt);
  void send_packet(Flow* f, std::uint32_t seq, bool retx);
  // Retransmission timer, at most one pending event per flow (see
  // Flow::rto_at): arm_rto moves the deadline, post_rto schedules it.
  void arm_rto(Flow* f);
  void post_rto(Flow* f);
  void fire_rto(Flow* f, Time at, std::uint64_t key);
  void receive_data(const Packet& pkt);
  // ack_lat = the triggering data packet's stamped reverse latency (the
  // Flow's own ack_lat is sender-shard state; see Packet::route).
  void send_ack(Flow* f, const AckInfo& ack, Time ack_lat);
  bool send_queued_ack();     // pops + serializes the next sendable ack

  PortInfo link_;
  FlowIndex index_;           // sender: eligible/blocked flow sets
  ReceiverSlab rcv_slab_;     // receiver: lazy per-flow state
  // acks_in_data: acks awaiting the uplink (arbitration) or a pause
  // release. A flat vector so an idle NIC owns no ack-queue heap.
  std::vector<Packet> ack_q_;
  bool busy_ = false;
  bool pfc_paused_ = false;
  bool link_down_ = false;    // fault plane: access link currently dead
  std::shared_ptr<const BloomBits> pause_bits_;
  Time wake_at_ = -1;
  NicStats stats_;
};

}  // namespace bfc
