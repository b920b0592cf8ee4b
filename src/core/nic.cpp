#include "core/nic.hpp"

#include <algorithm>
#include <cassert>

#include "core/cc.hpp"
#include "core/network.hpp"
#include "engine/sharded_sim.hpp"

namespace bfc {

namespace {

// Fast-retransmit reordering margin (IRN): a hole this many packets behind
// the latest selective ack is treated as lost.
constexpr std::uint32_t kDupThresh = 3;
// How many repair candidates one loss-detection round may queue.
constexpr std::uint32_t kRepairBatch = 8;

}  // namespace

Nic::Nic(Network& net, int node) : Device(net, node) {
  link_ = net_.topo().ports(node)[0];
  index_.configure(net_.params().bfc, net_.params().bloom_hashes);
}

void Nic::add_flow(Flow* f) {
  // On-demand resolution (idempotent): the route, unloaded RTT, CC seed
  // and RTO all materialize here — at activation on this (the source
  // NIC's) shard — not at prepare time.
  net_.resolve_flow(f);
  f->last_progress = shard_->now();
  index_.add(f, shard_->now());
  arm_rto(f);
  kick();
}

void Nic::ev_flow_start(Event& e) {
  static_cast<Nic*>(e.obj)->add_flow(static_cast<Flow*>(e.u.misc.p1));
}

void Nic::kick() {
  if (busy_ || pfc_paused_ || link_down_) return;
  // Uplink arbitration (acks_in_data): pending acks share the egress with
  // data and go first — they are 64 B frames acking MTU-scale packets, so
  // strict ack priority costs data almost nothing while keeping the ack
  // clock honest under load.
  if (!ack_q_.empty() && send_queued_ack()) return;
  const bool faulted = net_.faults() != nullptr;
  for (;;) {
    Flow* f = index_.pop_eligible();
    if (f == nullptr) {
      // Nothing ready: wake when the earliest pacing gate opens. If the
      // index drained completely, give its blocked-list slab back — and
      // once nothing at all is queued here, the ack queue's grown capacity
      // too (fabric-scale tiers idle most NICs most of the time; holding
      // per-NIC scratch across those gaps is what the RSS gate measures).
      index_.quiesce();
      // The >16 floor keeps steady acks_in_data traffic from paying a
      // malloc per ack; only burst-grown capacity is returned.
      if (index_.quiescent() && ack_q_.empty() && ack_q_.capacity() > 16) {
        std::vector<Packet>().swap(ack_q_);
      }
      arm_wake(shard_->now());
      return;
    }
    if (faulted) {
      // Send-path route validation: cheap epoch compare, re-resolve under
      // the liveness mask only when the plan has ticked (or the flow is
      // parked and retrying). The loop terminates because an unreachable
      // flow re-files as pacing-blocked behind its backoff gate.
      const Time now = shard_->now();
      const Time parked_at = f->parked_since;
      const Network::RouteCheck rc = net_.check_route(f, now);
      if (rc == Network::RouteCheck::kUnreachable) {
        ++stats_.unreachable_parks;
        if (obs::ShardObs* o = shard_->obs()) {
          o->count(obs::kFaultParks);
        }
        index_.update(f, now);
        continue;  // try the next eligible flow
      }
      if (rc == Network::RouteCheck::kRerouted) {
        ++stats_.reroutes;
        if (obs::ShardObs* o = shard_->obs()) {
          o->count(obs::kFaultReroutes);
        }
      }
      if (parked_at >= 0) {
        // The flow just recovered from an unreachable interval.
        if (obs::ShardObs* o = shard_->obs()) {
          o->histo_add(obs::kFaultRecovery,
                       static_cast<std::uint64_t>(now - parked_at));
        }
      }
    }
    std::uint32_t seq;
    bool retx = false;
    if (!f->retx_q.empty()) {
      seq = f->retx_q.front();
      f->retx_q.pop_front();
      retx = true;
    } else {
      seq = f->next_seq++;
    }
    send_packet(f, seq, retx);
    // Re-file at the ready queue's tail (round-robin) or into the class
    // the send pushed it to (window full, pacing gate).
    index_.update(f, shard_->now());
    return;
  }
}

void Nic::arm_wake(Time now) {
  const Time gate = index_.next_gate();
  if (gate == FlowIndex::kNoGate) return;
  if (wake_at_ >= 0 && wake_at_ <= gate && wake_at_ > now) return;
  wake_at_ = gate;
  Event* e = shard_->make(node_, gate);
  e->fn = &Nic::ev_wake;
  e->obj = this;
  e->u.timer = {gate};
  shard_->post_local(e);
}

void Nic::ev_wake(Event& e) {
  auto* nic = static_cast<Nic*>(e.obj);
  if (nic->wake_at_ == e.u.timer.i0) nic->wake_at_ = -1;
  nic->index_.on_wake(nic->shard_->now());
  nic->kick();
}

void Nic::ev_tx_done(Event& e) {
  auto* nic = static_cast<Nic*>(e.obj);
  nic->busy_ = false;
  nic->kick();
}

void Nic::send_packet(Flow* f, std::uint32_t seq, bool retx) {
  const Time now = shard_->now();
  Packet pkt;
  pkt.flow = f;
  pkt.seq = seq;
  pkt.vfid = f->vfid;
  pkt.wire = f->payload_of(seq) + kHeaderBytes;
  pkt.hop = 1;  // next transmitter: the ToR
  pkt.single = f->total_pkts == 1;
  pkt.prio = f->remaining_bytes();
  pkt.ts = now;
  // Expand the packed route id into the per-packet port snapshot. A
  // stack HopVec keeps the flow's footprint at 4 bytes per direction.
  HopVec hops;
  net_.topo().expand_path(f->key, f->path_id, hops);
  pkt.stamp_route(hops);
  pkt.ack_lat = f->ack_lat;
  if (retx || seq < f->max_sent) ++stats_.data_retx;
  f->max_sent = std::max(f->max_sent, seq + 1);
  ++stats_.pkts_sent;

  // Pacing: inter-packet gap at the flow's current rate.
  f->next_send =
      now + static_cast<Time>(static_cast<double>(pkt.wire) * 8e9 /
                              std::max(f->rate_bps, 1e6));

  transmit(pkt);
}

void Nic::transmit(const Packet& pkt) {
  busy_ = true;
  const Time now = shard_->now();
  const Time ser = link_.rate.time_to_send(pkt.wire);
  {
    Event* e = shard_->make(node_, now + ser);
    e->fn = &Nic::ev_tx_done;
    e->obj = this;
    shard_->post_local(e);
  }
  Event* e = shard_->make(node_, now + ser + link_.delay);
  e->fn = &Network::ev_deliver;
  e->obj = net_.device(link_.peer);
  e->put_packet(shard_->pack(pkt), link_.peer_port);
  shard_->post(e, link_.peer);
}

void Nic::arrive(Packet& pkt, int /*in_port*/) {
  if (link_down_) {
    // Was on the wire when the access link cut.
    ++stats_.blackholed;
    return;
  }
  if (pkt.is_ack) {
    AckInfo ack;
    ack.uid = pkt.flow->uid;
    ack.cum = pkt.cum;
    ack.sack = pkt.seq;
    ack.nack = pkt.nack;
    ack.ce = pkt.ce;
    ack.util = pkt.util;
    ack.ts = pkt.ts;
    on_ack(ack);
    return;
  }
  receive_data(pkt);
}

void Nic::receive_data(const Packet& pkt) {
  Flow* f = pkt.flow;
  AckInfo ack;
  ack.uid = f->uid;
  ack.sack = pkt.seq;
  ack.ce = pkt.ce;
  ack.util = pkt.util;
  ack.ts = pkt.ts;

  if (f->rcv_slot == Flow::kRcvDone) {
    // Late duplicate after full delivery: the slab slot is gone; just
    // re-advertise completion.
    ack.cum = f->total_pkts;
    send_ack(f, ack, pkt.ack_lat);
    return;
  }
  ReceiverState& rs = rcv_slab_.get(f);
  bool fresh = false;
  if (net_.params().retx == RetxMode::kGoBackN) {
    if (pkt.seq == rs.rcv_next) {
      ++rs.rcv_next;
      fresh = true;
    } else if (pkt.seq > rs.rcv_next) {
      ack.nack = true;  // out of order: GBN receivers keep nothing
    }
  } else {
    rs.rcvd.ensure(f->total_pkts);
    if (!rs.rcvd.test(pkt.seq)) {
      rs.rcvd.set(pkt.seq);
      fresh = true;
      rs.rcv_next = rs.rcvd.next_clear(rs.rcv_next, f->total_pkts);
    }
  }
  if (fresh) stats_.delivered_payload += f->payload_of(pkt.seq);
  ack.cum = rs.rcv_next;
  if (rs.rcv_next == f->total_pkts) {
    net_.on_flow_complete(f, shard_->now());
    rcv_slab_.release(f);  // marks rcv_slot = kRcvDone
  }
  send_ack(f, ack, pkt.ack_lat);
}

void Nic::send_ack(Flow* f, const AckInfo& ack, Time ack_lat) {
  const Time now = shard_->now();
  if (!net_.params().acks_in_data) {
    // Acks ride a contention-free control channel, delivered after the
    // unloaded reverse-path latency — the latency of the path the data
    // packet was launched on (carried in the packet: `f->ack_lat` is
    // sender-shard state the fault plane rewrites on a reroute, so the
    // receiver must not read it).
    Event* e = shard_->make(node_, now + ack_lat);
    e->fn = &Nic::ev_ack;
    e->obj = net_.device(static_cast<int>(f->key.src));
    e->put_ack(shard_->pack(ack));
    shard_->post(e, static_cast<int>(f->key.src));
    return;
  }
  // Reverse-path contention model: the ack is a real 64 B packet queued
  // through the fabric's data queues (keyed by the reverse-direction
  // VFID), and the host uplink itself is arbitrated — the ack joins the
  // NIC's egress queue and serializes through the same busy/tx-done pacer
  // as data (kick() services acks first).
  net_.resolve_reverse_route(f);  // receiver-side, on first ack
  Packet apk;
  apk.flow = f;
  apk.is_ack = true;
  apk.vfid = f->rvfid;
  apk.seq = ack.sack;
  apk.cum = ack.cum;
  apk.nack = ack.nack;
  apk.ce = ack.ce;
  apk.util = ack.util;
  apk.ts = ack.ts;
  apk.wire = kAckWireBytes;
  apk.hop = 1;  // next transmitter: this host's ToR, on the reverse path
  const FlowKey rkey{f->key.dst, f->key.src, f->key.dst_port,
                     f->key.src_port};
  HopVec rhops;
  net_.topo().expand_path(rkey, f->rpath_id, rhops);
  apk.stamp_route(rhops);
  ack_q_.push_back(apk);
  kick();
  // Deferred = this ack did not go out with that kick. kick() only ever
  // removes queue entries, so the new ack — pushed at the back — is
  // still waiting iff the back entry is still it (an earlier ack may
  // have taken the uplink instead; a paused backlog it overtook does
  // not count).
  if (!ack_q_.empty() && ack_q_.back().flow == apk.flow &&
      ack_q_.back().seq == apk.seq && ack_q_.back().cum == apk.cum) {
    ++stats_.acks_deferred;
  }
}

// Pops the first ack whose reverse VFID is not pause-gated and puts it on
// the wire, occupying the uplink for its serialization time. Returns
// whether a transmission started (the caller's kick then stops — the
// tx-done event re-kicks).
bool Nic::send_queued_ack() {
  const NetParams& p = net_.params();
  std::size_t i = 0;
  for (; i < ack_q_.size(); ++i) {
    if (!(p.bfc && pause_bits_ &&
          bloom_snapshot_contains(*pause_bits_, ack_q_[i].vfid,
                                  p.bloom_hashes))) {
      break;
    }
  }
  if (i == ack_q_.size()) return false;  // every pending ack is paused
  const Packet apk = ack_q_[i];
  ack_q_.erase(ack_q_.begin() + static_cast<std::ptrdiff_t>(i));
  ++stats_.acks_data_path;
  transmit(apk);
  return true;
}

void Nic::ev_ack(Event& e) {
  static_cast<Nic*>(e.obj)->on_ack(e.u.ack.node->ack);
}

void Nic::on_ack(const AckInfo& ack) {
  Flow* f = net_.flow(shard_->index(), ack.uid);
  if (f == nullptr || f->sender_done) return;
  const Time now = shard_->now();
  const NetParams& p = net_.params();

  if (p.retx == RetxMode::kIrn || p.pfabric) {
    f->acked.ensure(f->total_pkts);
    if (!f->acked.test(ack.sack)) {
      f->acked.set(ack.sack);
      if (ack.sack >= f->cum) ++f->sacked_beyond_cum;
    }
  }
  if (ack.cum > f->cum) {
    f->cum = ack.cum;
    f->last_progress = now;
    if (!f->acked.empty()) {
      // Re-derive how many sacked packets sit beyond the new cum point.
      f->sacked_beyond_cum = f->acked.count_range(f->cum, f->max_sent);
    }
  }

  cc_on_ack(p, *f, ack, now);

  if (p.retx == RetxMode::kGoBackN) {
    if (ack.nack && now - f->last_rewind > f->base_rtt) {
      f->last_rewind = now;
      f->next_seq = f->cum;  // rewind the window
      f->retx_q.clear();
    }
  } else if (ack.sack >= f->cum + kDupThresh &&
             now - f->last_fast_retx > f->base_rtt) {
    f->last_fast_retx = now;
    std::uint32_t queued = 0;
    for (std::uint32_t s = f->cum;
         s < ack.sack && queued < kRepairBatch; ++s) {
      if (!f->acked.test(s) && !f->retx_q.contains(s)) {
        f->retx_q.push_back(s);
        ++queued;
      }
    }
  }

  if (f->cum >= f->total_pkts) {
    f->sender_done = true;
    index_.remove(f);
    return;
  }
  arm_rto(f);
  index_.update(f, now);
  kick();
}

void Nic::arm_rto(Flow* f) {
  // Re-arming (every ack) only moves the deadline and mints its key now,
  // exactly where an eagerly posted timer would take its place in the
  // (at, key) order. The one pending event carries the timer forward.
  f->rto_at = shard_->now() + f->rto;
  f->rto_key = shard_->next_key(node_);
  if (!f->rto_armed) post_rto(f);
}

void Nic::post_rto(Flow* f) {
  f->rto_armed = true;
  Event* e = shard_->make_keyed(f->rto_key, f->rto_at);
  e->fn = &Nic::ev_rto;
  e->obj = this;
  e->u.misc = {f, 0, 0};
  shard_->post_local(e);
}

void Nic::ev_rto(Event& e) {
  static_cast<Nic*>(e.obj)->fire_rto(static_cast<Flow*>(e.u.misc.p1), e.at,
                                     e.key);
}

void Nic::fire_rto(Flow* f, Time at, std::uint64_t key) {
  f->rto_armed = false;
  if (f->sender_done) return;
  if (at != f->rto_at || key != f->rto_key) {
    // Re-armed since this event was posted. Deadlines only move later
    // (now + a per-flow constant), so the stored pair is still ahead.
    assert(at < f->rto_at || (at == f->rto_at && key < f->rto_key));
    post_rto(f);
    return;
  }
  const Time now = shard_->now();
  if (net_.params().bfc && pause_bits_ &&
      bloom_snapshot_contains(*pause_bits_, f->vfid,
                              net_.params().bloom_hashes)) {
    // The fabric is pausing this flow, and a pause is not a loss: hold the
    // timer (otherwise long paced-resume waits trigger spurious GBN
    // rewinds that flood the very queue the pause is draining).
    f->last_progress = now;
    arm_rto(f);
    return;
  }
  if (now - f->last_progress < f->rto) {
    // Progress happened since arming: re-arm relative to it.
    f->rto_at = f->last_progress + f->rto;
    f->rto_key = shard_->next_key(node_);
    post_rto(f);
    return;
  }
  ++stats_.rto_fires;
  f->last_progress = now;
  if (net_.params().retx == RetxMode::kGoBackN && !net_.params().pfabric) {
    f->next_seq = f->cum;
    f->retx_q.clear();
  } else {
    f->retx_q.clear();
    std::uint32_t queued = 0;
    for (std::uint32_t s = f->cum; s < f->max_sent && queued < f->win_pkts;
         ++s) {
      if (f->acked.empty() || !f->acked.test(s)) {
        f->retx_q.push_back(s);
        ++queued;
      }
    }
  }
  arm_rto(f);
  index_.update(f, now);
  kick();
}

void Nic::on_bfc_snapshot(int /*egress_port*/,
                          std::shared_ptr<const BloomBits> bits) {
  pause_bits_ = std::move(bits);
  index_.on_snapshot(pause_bits_, shard_->now());
  kick();  // services newly-unpaused acks first, then data
}

void Nic::on_pfc(int /*egress_port*/, bool paused) {
  pfc_paused_ = paused;
  if (!paused) kick();
}

void Nic::on_link_state(int /*port*/, bool up) {
  link_down_ = !up;
  // Down needs no teardown here: queued state is just flow bookkeeping
  // (RTOs hold and retry), and the in-flight packets die at the far
  // end's dead ingress. Up restarts the transmitter — after clearing any
  // PFC pause taken before the flap: the ToR forgot it ever paused us
  // (drain_dead_port resets its pfc_sent record for the dead ingress),
  // so no resume is coming and a stale pause would wedge the NIC.
  if (up) {
    pfc_paused_ = false;
    kick();
  }
}

}  // namespace bfc
