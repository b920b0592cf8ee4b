// Checkpoint/warm-start codec implementation. See snapshot.hpp for the
// format contract (layout independence, exact continuation, versioned
// rejection) and docs/ARCHITECTURE.md for the full state inventory.
#include "core/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/fault.hpp"
#include "core/flow.hpp"
#include "core/network.hpp"
#include "core/nic.hpp"
#include "core/switch.hpp"
#include "engine/sharded_sim.hpp"

namespace bfc {
namespace {

// Little-endian byte-buffer writer. Every multi-byte field goes through
// these, so the image is identical across hosts regardless of the
// compiler's struct layout.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    u32(bits);
  }
  void vec_u8(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
  void vec_u32(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    for (std::uint32_t x : v) u32(x);
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (std::uint64_t x : v) u64(x);
  }
  void vec_i32(const std::vector<int>& v) {
    u64(v.size());
    for (int x : v) i32(x);
  }
  void vec_i64(const std::vector<std::int64_t>& v) {
    u64(v.size());
    for (std::int64_t x : v) i64(x);
  }

  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Bounds-checked reader: any overrun or explicit fail() poisons the
// stream, reads return zero/empty from then on, and restore() reports one
// error at the end instead of crashing mid-decode.
class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

  bool ok() const { return ok_; }
  void fail() { ok_ = false; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return p_[-1];
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p_[i - 4]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p_[i - 8]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  std::vector<std::uint8_t> vec_u8() {
    const std::uint64_t n = len();
    std::vector<std::uint8_t> v;
    if (!ok_ || !take(n)) return v;
    v.assign(p_ - n, p_);
    return v;
  }
  std::vector<std::uint32_t> read_vec_u32() {
    const std::uint64_t n = len();
    std::vector<std::uint32_t> v;
    if (!ok_) return v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n && ok_; ++i) v.push_back(u32());
    return v;
  }
  std::vector<std::uint64_t> read_vec_u64() {
    const std::uint64_t n = len();
    std::vector<std::uint64_t> v;
    if (!ok_) return v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n && ok_; ++i) v.push_back(u64());
    return v;
  }
  std::vector<int> read_vec_i32() {
    const std::uint64_t n = len();
    std::vector<int> v;
    if (!ok_) return v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n && ok_; ++i) v.push_back(i32());
    return v;
  }
  std::vector<std::int64_t> read_vec_i64() {
    const std::uint64_t n = len();
    std::vector<std::int64_t> v;
    if (!ok_) return v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n && ok_; ++i) v.push_back(i64());
    return v;
  }

 private:
  // A length prefix, sanity-capped against the bytes actually remaining
  // so a corrupt length cannot drive a multi-gigabyte reserve.
  std::uint64_t len() {
    const std::uint64_t n = u64();
    if (n > static_cast<std::uint64_t>(end_ - p_) + 8) {
      ok_ = false;
      return 0;
    }
    return n;
  }
  bool take(std::uint64_t n) {
    if (!ok_ || static_cast<std::uint64_t>(end_ - p_) < n) {
      ok_ = false;
      return false;
    }
    p_ += n;
    return true;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

}  // namespace

// All stateful codec logic. Impl is a member of Snapshot, so it shares
// every `friend class Snapshot` grant (Nic, Switch, Network, FlowTable,
// FlowIndex, FlowStats, ReceiverSlab, Shard, ShardedSimulator).
struct Snapshot::Impl {
  static constexpr std::uint64_t kMagic = 0x3150414E53434642ULL;    // "BFCSNAP1"
  static constexpr std::uint64_t kTrailer = 0x31444E4550414E53ULL;  // "SNAPEND1"
  static constexpr std::uint64_t kNoFlow = ~std::uint64_t{0};

  // Stable wire ids for the pooled event handlers. Every event in a
  // running simulation dispatches to exactly one of these (closures —
  // fn == nullptr — are the harness's and are not serialized).
  enum Handler : std::uint32_t {
    kNicFlowStart = 0,  // u.misc.p1 = Flow*
    kNicTxDone = 1,     // no payload
    kNicWake = 2,       // u.timer.i0 = gate
    kNicRto = 3,        // u.misc.p1 = Flow*
    kNicAck = 4,        // u.ack = AckNode
    kSwTxDone = 5,      // u.misc.i1 = egress port
    kSwRefresh = 6,     // no payload
    kSwReclaim = 7,     // no payload
    kNetDeliver = 8,    // u.pkt = {PacketNode, in_port}
    kNetSnapshot = 9,   // u.cold = {ColdNode(bits), port}
    kNetPfc = 10,       // u.misc = {-, port, paused}
    kNetLinkState = 11, // u.misc = {-, port, up}
    kHandlerCount = 12,
  };

  static EventFn handler_fn(std::uint32_t id) {
    switch (id) {
      case kNicFlowStart: return &Nic::ev_flow_start;
      case kNicTxDone: return &Nic::ev_tx_done;
      case kNicWake: return &Nic::ev_wake;
      case kNicRto: return &Nic::ev_rto;
      case kNicAck: return &Nic::ev_ack;
      case kSwTxDone: return &Switch::ev_tx_done;
      case kSwRefresh: return &Switch::ev_refresh;
      case kSwReclaim: return &Switch::ev_reclaim;
      case kNetDeliver: return &Network::ev_deliver;
      case kNetSnapshot: return &Network::ev_snapshot;
      case kNetPfc: return &Network::ev_pfc;
      case kNetLinkState: return &Network::ev_link_state;
      default: return nullptr;
    }
  }

  static bool handler_id(EventFn fn, std::uint32_t* id) {
    for (std::uint32_t i = 0; i < kHandlerCount; ++i) {
      if (handler_fn(i) == fn) {
        *id = i;
        return true;
      }
    }
    return false;
  }

  // --- small codecs ---

  static void save_key(Writer& w, const FlowKey& k) {
    w.u32(k.src);
    w.u32(k.dst);
    w.u32(k.src_port);
    w.u32(k.dst_port);
  }
  static FlowKey load_key(Reader& r) {
    FlowKey k;
    k.src = r.u32();
    k.dst = r.u32();
    k.src_port = static_cast<std::uint16_t>(r.u32());
    k.dst_port = static_cast<std::uint16_t>(r.u32());
    return k;
  }

  static void save_bits(Writer& w, const std::shared_ptr<const BloomBits>& b) {
    w.u8(b != nullptr);
    if (b != nullptr) w.vec_u64(*b);
  }
  static std::shared_ptr<const BloomBits> load_bits(Reader& r) {
    if (r.u8() == 0) return nullptr;
    return std::make_shared<const BloomBits>(r.read_vec_u64());
  }

  static void save_packet(Writer& w, const Packet& p) {
    w.u64(p.flow != nullptr ? p.flow->uid : kNoFlow);
    w.u32(p.seq);
    w.u32(p.vfid);
    w.i32(p.wire);
    w.i32(p.hop);
    w.u8(p.is_ack);
    w.u8(p.ce);
    w.u8(p.single);
    w.u8(p.nack);
    w.u8(p.tracked);
    w.u32(p.cum);
    w.i64(p.prio);
    w.f32(p.util);
    w.i64(p.ts);
    w.i32(p.buf_in);
    for (std::uint16_t hop : p.route) w.u32(hop);
    w.i64(p.ack_lat);
  }
  static Packet load_packet(Reader& r, Network& net) {
    Packet p;
    const std::uint64_t uid = r.u64();
    if (uid != kNoFlow) {
      p.flow = net.flow(uid);
      if (p.flow == nullptr) r.fail();
    }
    p.seq = r.u32();
    p.vfid = r.u32();
    p.wire = r.i32();
    p.hop = r.i32();
    p.is_ack = r.u8() != 0;
    p.ce = r.u8() != 0;
    p.single = r.u8() != 0;
    p.nack = r.u8() != 0;
    p.tracked = r.u8() != 0;
    p.cum = r.u32();
    p.prio = r.i64();
    p.util = r.f32();
    p.ts = r.i64();
    p.buf_in = r.i32();
    for (std::uint16_t& hop : p.route) hop = static_cast<std::uint16_t>(r.u32());
    p.ack_lat = r.i64();
    return p;
  }

  static void save_fifo(Writer& w, const PacketFifo& q) {
    w.u32(static_cast<std::uint32_t>(q.size()));
    q.for_each([&w](const Packet& p) { save_packet(w, p); });
  }
  static void load_fifo(Reader& r, Network& net, PacketArena& arena,
                        PacketFifo* q) {
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      q->push(arena, load_packet(r, net));
    }
  }

  static void save_ack(Writer& w, const AckInfo& a) {
    w.u64(a.uid);
    w.u32(a.cum);
    w.u32(a.sack);
    w.u8(a.nack);
    w.u8(a.ce);
    w.f32(a.util);
    w.i64(a.ts);
  }
  static AckInfo load_ack(Reader& r) {
    AckInfo a;
    a.uid = r.u64();
    a.cum = r.u32();
    a.sack = r.u32();
    a.nack = r.u8() != 0;
    a.ce = r.u8() != 0;
    a.util = r.f32();
    a.ts = r.i64();
    return a;
  }

  // --- fingerprint ---

  static void save_fingerprint(Writer& w, const ShardedSimulator& sim,
                               const Network& net) {
    const NetParams& p = net.params_;
    w.u32(static_cast<std::uint32_t>(sim.n_nodes_));
    w.u32(static_cast<std::uint32_t>(p.scheme));
    w.u32(static_cast<std::uint32_t>(p.cc));
    w.u32(static_cast<std::uint32_t>(p.retx));
    w.u32(static_cast<std::uint32_t>(p.sched));
    std::uint32_t flags = 0;
    flags |= p.bfc ? 1u << 0 : 0;
    flags |= p.dynamic_q ? 1u << 1 : 0;
    flags |= p.hpq ? 1u << 2 : 0;
    flags |= p.resume_limit ? 1u << 3 : 0;
    flags |= p.pfc ? 1u << 4 : 0;
    flags |= p.sfq ? 1u << 5 : 0;
    flags |= p.per_flow_fq ? 1u << 6 : 0;
    flags |= p.inf_buffer ? 1u << 7 : 0;
    flags |= p.pfabric ? 1u << 8 : 0;
    flags |= p.win_cap ? 1u << 9 : 0;
    flags |= p.acks_in_data ? 1u << 10 : 0;
    w.u32(flags);
    w.u32(static_cast<std::uint32_t>(p.n_queues));
    w.u32(static_cast<std::uint32_t>(p.n_vfids));
    w.u32(static_cast<std::uint32_t>(p.bloom_bytes));
    w.u32(static_cast<std::uint32_t>(p.bloom_hashes));
    w.f64(p.hrtt_scale);
    w.f64(p.data_loss);
    w.f64(p.ctrl_loss);
    w.u64(p.fault_seed);
    w.u64(net.faults_ != nullptr ? net.faults_->transitions().size() : 0);
  }

  // Reads the saved fingerprint and compares it against a second Writer
  // pass over the live pair — one comparison path, no field-by-field
  // duplication to drift.
  static bool check_fingerprint(Reader& r, const ShardedSimulator& sim,
                                const Network& net) {
    Writer expect;
    save_fingerprint(expect, sim, net);
    const std::vector<std::uint8_t> want = expect.take();
    for (std::uint8_t b : want) {
      if (!r.ok() || r.u8() != b) return false;
    }
    return r.ok();
  }

  // --- flows ---

  static void save_flow(Writer& w, const Flow& f) {
    w.u64(f.uid);
    save_key(w, f.key);
    w.u64(f.bytes);
    w.u32(f.total_pkts);
    w.u8(f.incast);
    w.u32(f.vfid);
    // v2: packed route ids (8 bytes) instead of two serialized HopVecs.
    w.u32(f.path_id);
    w.u32(f.rpath_id);
    w.u32(f.rvfid);
    w.i64(f.base_rtt);
    w.i64(f.ack_lat);
    w.i64(f.rto);
    w.f64(f.line_bps);
    w.f64(f.rate_bps);
    w.u32(f.win_pkts);
    w.u32(f.next_seq);
    w.u32(f.cum);
    w.u32(f.max_sent);
    w.u32(f.sacked_beyond_cum);
    w.vec_u64(f.acked.words());
    w.vec_u32(f.retx_q.pending());
    w.i64(f.next_send);
    w.i64(f.last_progress);
    w.i64(f.last_rewind);
    w.i64(f.last_fast_retx);
    w.u8(f.sender_done);
    // v3: the one pending RTO event's deadline, key and armed bit.
    w.i64(f.rto_at);
    w.u64(f.rto_key);
    w.u8(f.rto_armed);
    w.i32(f.route_epoch);
    w.u8(f.backoff_exp);
    w.i64(f.parked_since);
    w.u8(static_cast<std::uint8_t>(f.send_state));
    w.u8(f.index_slots);
    w.f64(f.cc_target);
    w.f64(f.cc_alpha);
    w.i64(f.cc_last_cut);
    w.i64(f.cc_last_inc);
    w.f64(f.tm_prev_rtt);
    w.f64(f.tm_grad);
    w.i64(f.hpcc_last_dec);
    w.i32(f.rroute_epoch);
    w.i32(f.rcv_slot);
  }

  static void load_flow(Reader& r, Flow* f) {
    f->uid = r.u64();
    f->key = load_key(r);
    f->bytes = r.u64();
    f->total_pkts = r.u32();
    f->incast = r.u8() != 0;
    f->vfid = r.u32();
    f->path_id = r.u32();
    f->rpath_id = r.u32();
    f->rvfid = r.u32();
    f->base_rtt = r.i64();
    f->ack_lat = r.i64();
    f->rto = r.i64();
    f->line_bps = r.f64();
    f->rate_bps = r.f64();
    f->win_pkts = r.u32();
    f->next_seq = r.u32();
    f->cum = r.u32();
    f->max_sent = r.u32();
    f->sacked_beyond_cum = r.u32();
    f->acked.set_words(r.read_vec_u64());
    f->retx_q.assign_pending(r.read_vec_u32());
    f->next_send = r.i64();
    f->last_progress = r.i64();
    f->last_rewind = r.i64();
    f->last_fast_retx = r.i64();
    f->sender_done = r.u8() != 0;
    f->rto_at = r.i64();
    f->rto_key = r.u64();
    f->rto_armed = r.u8() != 0;
    f->route_epoch = r.i32();
    f->backoff_exp = r.u8();
    f->parked_since = r.i64();
    f->send_state = static_cast<SendState>(r.u8());
    f->index_slots = r.u8();
    f->cc_target = r.f64();
    f->cc_alpha = r.f64();
    f->cc_last_cut = r.i64();
    f->cc_last_inc = r.i64();
    f->tm_prev_rtt = r.f64();
    f->tm_grad = r.f64();
    f->hpcc_last_dec = r.i64();
    f->rroute_epoch = r.i32();
    f->rcv_slot = r.i32();
  }

  // --- devices ---

  static void save_nic(Writer& w, const Nic& nic) {
    const NicStats& s = nic.stats_;
    w.i64(s.rto_fires);
    w.i64(s.data_retx);
    w.i64(s.pkts_sent);
    w.i64(s.delivered_payload);
    w.i64(s.acks_data_path);
    w.i64(s.acks_deferred);
    w.i64(s.reroutes);
    w.i64(s.unreachable_parks);
    w.i64(s.blackholed);
    w.u8(nic.busy_);
    w.u8(nic.pfc_paused_);
    w.u8(nic.link_down_);
    w.i64(nic.wake_at_);
    save_bits(w, nic.pause_bits_);
    w.u64(nic.ack_q_.size());
    for (const Packet& p : nic.ack_q_) save_packet(w, p);
    // Receiver slab: slots (live and free) plus the free list, so slot
    // handles (Flow::rcv_slot) stay valid verbatim.
    w.u64(nic.rcv_slab_.slab_.size());
    for (const ReceiverState& rs : nic.rcv_slab_.slab_) {
      w.u32(rs.rcv_next);
      w.vec_u64(rs.rcvd.words());
    }
    w.vec_u32(nic.rcv_slab_.free_);
    w.u64(nic.rcv_slab_.hw_);
    // Sender flow index: containers hold Flow pointers; serialize uids in
    // container order (the eligible FIFO order IS the service order).
    const FlowIndex& ix = nic.index_;
    w.u64(ix.elig_count_);
    for (const Flow* f = ix.elig_head_; f != nullptr; f = f->elig_next) {
      w.u64(f->uid);
    }
    const std::size_t n_pacing =
        ix.slab_ == nullptr ? 0 : ix.slab_->pacing.size();
    const std::size_t n_paused =
        ix.slab_ == nullptr ? 0 : ix.slab_->paused.size();
    w.u64(n_pacing);
    for (std::size_t i = 0; i < n_pacing; ++i) {
      w.u64(ix.slab_->pacing[i]->uid);
    }
    w.u64(n_paused);
    for (std::size_t i = 0; i < n_paused; ++i) {
      w.u64(ix.slab_->paused[i]->uid);
    }
    save_bits(w, ix.bits_);
    w.i64(ix.next_gate_);
    w.u64(ix.transitions_);
  }

  static void load_nic(Reader& r, Network& net, Nic* nic) {
    NicStats& s = nic->stats_;
    s.rto_fires = r.i64();
    s.data_retx = r.i64();
    s.pkts_sent = r.i64();
    s.delivered_payload = r.i64();
    s.acks_data_path = r.i64();
    s.acks_deferred = r.i64();
    s.reroutes = r.i64();
    s.unreachable_parks = r.i64();
    s.blackholed = r.i64();
    nic->busy_ = r.u8() != 0;
    nic->pfc_paused_ = r.u8() != 0;
    nic->link_down_ = r.u8() != 0;
    nic->wake_at_ = r.i64();
    nic->pause_bits_ = load_bits(r);
    const std::uint64_t n_acks = r.u64();
    nic->ack_q_.clear();
    for (std::uint64_t i = 0; i < n_acks && r.ok(); ++i) {
      nic->ack_q_.push_back(load_packet(r, net));
    }
    const std::uint64_t n_slots = r.u64();
    nic->rcv_slab_.slab_.clear();
    for (std::uint64_t i = 0; i < n_slots && r.ok(); ++i) {
      ReceiverState rs;
      rs.rcv_next = r.u32();
      rs.rcvd.set_words(r.read_vec_u64());
      nic->rcv_slab_.slab_.push_back(std::move(rs));
    }
    nic->rcv_slab_.free_ = r.read_vec_u32();
    nic->rcv_slab_.hw_ = r.u64();
    // Flow index: rebuilt in container order. The kIn* membership bits
    // ride each Flow's own image, so the FIFO links are re-threaded and
    // the slab re-materialized (only if anything was queued) without
    // touching them.
    FlowIndex& ix = nic->index_;
    const std::uint64_t n_el = r.u64();
    for (std::uint64_t i = 0; i < n_el && r.ok(); ++i) {
      Flow* f = net.flow(r.u64());
      if (f == nullptr) r.fail();
      else ix.fifo_push(f);
    }
    const std::uint64_t n_pc = r.u64();
    for (std::uint64_t i = 0; i < n_pc && r.ok(); ++i) {
      Flow* f = net.flow(r.u64());
      if (f == nullptr) r.fail();
      else ix.slab().pacing.push_back(f);
    }
    const std::uint64_t n_pa = r.u64();
    for (std::uint64_t i = 0; i < n_pa && r.ok(); ++i) {
      Flow* f = net.flow(r.u64());
      if (f == nullptr) r.fail();
      else ix.slab().paused.push_back(f);
    }
    ix.bits_ = load_bits(r);
    ix.next_gate_ = r.i64();
    ix.transitions_ = r.u64();
  }

  static void save_table(Writer& w, const FlowTable& t) {
    // Live entries, key-sorted so the image is independent of insertion
    // history and chunk placement. Way/overflow placement is NOT encoded:
    // find() is keyed, so placement is behavior-invariant, and restore
    // re-acquires in sorted order.
    std::vector<const FlowEntry*> live;
    live.reserve(t.live_);
    for (std::size_t ci = 0; ci < t.banks_.size(); ++ci) {
      const FlowTable::Bank& b = t.banks_[ci];
      if (b.entries == nullptr) continue;
      const std::size_t n = t.chunk_buckets(ci) * static_cast<std::size_t>(t.ways_);
      for (std::size_t i = 0; i < n; ++i) {
        if (b.entries[i].in_use) live.push_back(&b.entries[i]);
      }
    }
    for (const FlowEntry& e : t.overflow_) {
      if (e.in_use) live.push_back(&e);
    }
    std::sort(live.begin(), live.end(),
              [](const FlowEntry* a, const FlowEntry* b) {
                if (a->egress != b->egress) return a->egress < b->egress;
                if (a->vfid != b->vfid) return a->vfid < b->vfid;
                return a->prio < b->prio;
              });
    w.u64(live.size());
    for (const FlowEntry* e : live) {
      w.u32(e->vfid);
      w.i32(e->egress);
      w.i32(e->prio);
      w.i32(e->queue);
      w.i32(e->pkts);
      w.i32(e->in_port);
      w.u8(e->paused);
      w.u8(e->resume_pending);
      w.u8(e->holds_resume_slot);
    }
    // Materialized-chunk set + overflow init: restore force-materializes
    // so the footprint telemetry (table_chunks) round-trips exactly.
    w.u64(t.banks_.size());
    for (const FlowTable::Bank& b : t.banks_) w.u8(b.entries != nullptr);
    w.u8(t.overflow_init_);
    w.i64(t.rejects_);
  }

  static void load_table(Reader& r, FlowTable* t) {
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      const std::uint32_t vfid = r.u32();
      const std::int32_t egress = r.i32();
      const std::int32_t prio = r.i32();
      bool created = false;
      FlowEntry* e = t->acquire(vfid, egress, prio, created);
      if (e == nullptr) {
        r.fail();
        // Still consume the record so the stream stays aligned.
        (void)r.i32();
        (void)r.i32();
        (void)r.i32();
        (void)r.u8();
        (void)r.u8();
        (void)r.u8();
        continue;
      }
      e->queue = r.i32();
      e->pkts = r.i32();
      e->in_port = r.i32();
      e->paused = r.u8() != 0;
      e->resume_pending = r.u8() != 0;
      e->holds_resume_slot = r.u8() != 0;
    }
    const std::uint64_t n_banks = r.u64();
    if (n_banks != t->banks_.size()) {
      r.fail();
      return;
    }
    for (std::uint64_t ci = 0; ci < n_banks; ++ci) {
      const bool want = r.u8() != 0;
      if (want && t->banks_[ci].entries == nullptr) {
        t->bank_for(ci * FlowTable::kChunkBuckets);
      }
    }
    if (r.u8() != 0 && !t->overflow_init_) t->ensure_overflow();
    t->rejects_ = r.i64();
  }

  static void save_switch(Writer& w, const Switch& sw) {
    w.i64(sw.buffer_used_);
    w.i64(sw.totals_.pfc_pauses_sent);
    w.i64(sw.totals_.pfc_resumes_sent);
    w.i64(sw.totals_.drops);
    w.i64(sw.totals_.blackholed);
    w.i64(sw.bfc_totals_.pauses);
    w.i64(sw.bfc_totals_.resumes);
    w.i64(sw.bfc_totals_.overflow_packets);
    w.i64(sw.assignments_);
    w.i64(sw.collisions_);
    w.vec_i32(sw.saved_rr_);
    for (std::int64_t ns : sw.reclaimed_pfc_ns_) w.i64(ns);
    w.vec_u8(sw.port_down_);
    w.vec_i64(sw.port_down_t0_);
    save_table(w, sw.table_);

    // Egress slabs.
    w.u32(static_cast<std::uint32_t>(sw.egress_.size()));
    for (const auto& slot : sw.egress_) {
      const Switch::Egress* eg = slot.get();
      w.u8(eg != nullptr);
      if (eg == nullptr) continue;
      w.i64(eg->last_active);
      save_fifo(w, eg->hpq);
      w.u32(static_cast<std::uint32_t>(eg->dq.size()));
      for (const PacketFifo& q : eg->dq) save_fifo(w, q);
      w.vec_u64(eg->dq_occ);
      w.u64(eg->pause_gen);
      w.vec_i32(eg->dq_flows);
      w.vec_i64(eg->deficit);
      // Per-queue entry lists: (vfid, prio) refs in head->tail order.
      w.u32(static_cast<std::uint32_t>(eg->q_entries.size()));
      for (const FlowEntry* head : eg->q_entries) {
        std::uint32_t n = 0;
        for (const FlowEntry* e = head; e != nullptr; e = e->q_next) ++n;
        w.u32(n);
        for (const FlowEntry* e = head; e != nullptr; e = e->q_next) {
          w.u32(e->vfid);
          w.i32(e->prio);
        }
      }
      // Per-queue resume limiters.
      w.u32(static_cast<std::uint32_t>(eg->resume.size()));
      for (const Switch::QueueResume& qr : eg->resume) {
        w.u32(static_cast<std::uint32_t>(qr.pending.size()));
        for (const FlowEntry* e : qr.pending) {
          w.u32(e->vfid);
          w.i32(e->prio);
        }
        w.i32(qr.outstanding);
        w.i32(qr.paused);
      }
      w.u64(eg->srpt.size());
      for (const auto& [prio, pkt] : eg->srpt) {
        w.i64(prio);
        save_packet(w, pkt);
      }
      w.i64(eg->srpt_bytes);
      w.i64(eg->port_bytes);
      w.i32(eg->rr);
      w.u8(eg->busy);
      w.u8(eg->peer_pfc_paused);
      w.i64(eg->pfc_since);
      w.i64(eg->pfc_ns);
      save_bits(w, eg->pause_bits);
      // Ideal-FQ dynamic queue map, key-sorted for layout independence.
      std::vector<std::pair<std::uint64_t, int>> fq(eg->flow_q.begin(),
                                                    eg->flow_q.end());
      std::sort(fq.begin(), fq.end());
      w.u64(fq.size());
      for (const auto& [uid, q] : fq) {
        w.u64(uid);
        w.i32(q);
      }
      w.vec_i32(eg->free_q);
    }

    // Ingress slabs.
    w.u32(static_cast<std::uint32_t>(sw.ingress_.size()));
    for (const auto& slot : sw.ingress_) {
      const Switch::Ingress* in = slot.get();
      w.u8(in != nullptr);
      if (in == nullptr) continue;
      w.i64(in->last_active);
      w.u8(in->bloom != nullptr);
      if (in->bloom != nullptr) w.vec_u8(in->bloom->counters());
      w.i64(in->resident_bytes);
      w.u8(in->pfc_sent);
      w.u8(in->snapshot_dirty);
      w.i32(in->paused_flows);
      w.i64(in->pause_t0);
    }

    // Armed flags and slab-churn counters last: restore materializes the
    // slabs with the flags pinned true (so ensure_* posts no events) and
    // overwrites flags + counters from here afterwards.
    w.u8(sw.refresh_armed_);
    w.u8(sw.reclaim_armed_);
    w.u64(sw.eg_live_hw_);
    w.u64(sw.in_live_hw_);
    w.u64(sw.reclaim_sweeps_);
    w.u64(sw.reclaimed_ports_);
  }

  static void load_switch(Reader& r, Network& net, Switch* sw) {
    sw->buffer_used_ = r.i64();
    sw->totals_.pfc_pauses_sent = r.i64();
    sw->totals_.pfc_resumes_sent = r.i64();
    sw->totals_.drops = r.i64();
    sw->totals_.blackholed = r.i64();
    sw->bfc_totals_.pauses = r.i64();
    sw->bfc_totals_.resumes = r.i64();
    sw->bfc_totals_.overflow_packets = r.i64();
    sw->assignments_ = r.i64();
    sw->collisions_ = r.i64();
    sw->saved_rr_ = r.read_vec_i32();
    for (std::int64_t& ns : sw->reclaimed_pfc_ns_) ns = r.i64();
    sw->port_down_ = r.vec_u8();
    sw->port_down_t0_ = r.read_vec_i64();
    // Pin the armed flags so ensure_egress/ensure_ingress materialize
    // without posting events or consuming sequence numbers — the pending
    // ev_reclaim/ev_refresh events (if any were armed) arrive with the
    // saved event list. The saved flag values land at the end.
    sw->reclaim_armed_ = true;
    sw->refresh_armed_ = true;
    load_table(r, &sw->table_);

    PacketArena& arena = sw->shard().arena();
    const std::uint32_t n_eg = r.u32();
    if (n_eg != sw->egress_.size()) {
      r.fail();
      return;
    }
    for (std::uint32_t port = 0; port < n_eg && r.ok(); ++port) {
      if (r.u8() == 0) continue;
      Switch::Egress& eg = sw->ensure_egress(static_cast<int>(port));
      eg.last_active = r.i64();
      load_fifo(r, net, arena, &eg.hpq);
      const std::uint32_t nq = r.u32();
      if (nq > 1u << 20) {
        r.fail();
        return;
      }
      eg.dq.resize(nq);
      for (std::uint32_t q = 0; q < nq && r.ok(); ++q) {
        load_fifo(r, net, arena, &eg.dq[q]);
      }
      eg.dq_occ = r.read_vec_u64();
      eg.pause_gen = r.u64();
      eg.dq_flows = r.read_vec_i32();
      eg.deficit = r.read_vec_i64();
      // Head-pause memos are caches keyed by (pause_gen, head vfid);
      // zeroed memos simply miss and recompute against pause_bits.
      eg.head_gen.assign(nq, 0);
      eg.head_vfid.assign(nq, 0);
      eg.head_paused.assign(nq, 0);
      const std::uint32_t n_qe = r.u32();
      eg.q_entries.assign(n_qe, nullptr);
      for (std::uint32_t q = 0; q < n_qe && r.ok(); ++q) {
        const std::uint32_t n = r.u32();
        std::vector<std::pair<std::uint32_t, std::int32_t>> refs;
        refs.reserve(n);
        for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
          const std::uint32_t vfid = r.u32();
          const std::int32_t prio = r.i32();
          refs.emplace_back(vfid, prio);
        }
        // Rebuild the intrusive list head->tail by linking in reverse.
        FlowEntry* head = nullptr;
        for (auto it = refs.rbegin(); it != refs.rend(); ++it) {
          FlowEntry* e =
              sw->table_.find(it->first, static_cast<int>(port), it->second);
          if (e == nullptr) {
            r.fail();
            break;
          }
          e->q_prev = nullptr;
          e->q_next = head;
          if (head != nullptr) head->q_prev = e;
          head = e;
        }
        eg.q_entries[q] = head;
      }
      const std::uint32_t n_res = r.u32();
      eg.resume.clear();
      eg.resume.resize(n_res);
      for (std::uint32_t q = 0; q < n_res && r.ok(); ++q) {
        Switch::QueueResume& qr = eg.resume[q];
        const std::uint32_t n = r.u32();
        for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
          const std::uint32_t vfid = r.u32();
          const std::int32_t prio = r.i32();
          FlowEntry* e =
              sw->table_.find(vfid, static_cast<int>(port), prio);
          if (e == nullptr) {
            r.fail();
            break;
          }
          qr.pending.push_back(e);
        }
        qr.outstanding = r.i32();
        qr.paused = r.i32();
      }
      const std::uint64_t n_srpt = r.u64();
      eg.srpt.clear();
      for (std::uint64_t i = 0; i < n_srpt && r.ok(); ++i) {
        const std::int64_t prio = r.i64();
        eg.srpt.emplace(prio, load_packet(r, net));
      }
      eg.srpt_bytes = r.i64();
      eg.port_bytes = r.i64();
      eg.rr = r.i32();
      eg.busy = r.u8() != 0;
      eg.peer_pfc_paused = r.u8() != 0;
      eg.pfc_since = r.i64();
      eg.pfc_ns = r.i64();
      eg.pause_bits = load_bits(r);
      const std::uint64_t n_fq = r.u64();
      eg.flow_q.clear();
      for (std::uint64_t i = 0; i < n_fq && r.ok(); ++i) {
        const std::uint64_t uid = r.u64();
        eg.flow_q[uid] = r.i32();
      }
      eg.free_q = r.read_vec_i32();
    }

    const std::uint32_t n_in = r.u32();
    if (n_in != sw->ingress_.size()) {
      r.fail();
      return;
    }
    for (std::uint32_t port = 0; port < n_in && r.ok(); ++port) {
      if (r.u8() == 0) continue;
      Switch::Ingress& in = sw->ensure_ingress(static_cast<int>(port));
      in.last_active = r.i64();
      if (r.u8() != 0) {
        std::vector<std::uint8_t> counters = r.vec_u8();
        if (in.bloom == nullptr) {
          const NetParams& p = net.params();
          in.bloom = std::make_unique<CountingBloom>(p.bloom_bytes,
                                                     p.bloom_hashes);
        }
        in.bloom->set_counters(std::move(counters));
      }
      in.resident_bytes = r.i64();
      in.pfc_sent = r.u8() != 0;
      in.snapshot_dirty = r.u8() != 0;
      in.paused_flows = r.i32();
      in.pause_t0 = r.i64();
    }

    sw->refresh_armed_ = r.u8() != 0;
    sw->reclaim_armed_ = r.u8() != 0;
    sw->eg_live_hw_ = r.u64();
    sw->in_live_hw_ = r.u64();
    sw->reclaim_sweeps_ = r.u64();
    sw->reclaimed_ports_ = r.u64();
  }

  // --- events ---

  static bool save_events(Writer& w, ShardedSimulator& sim) {
    std::vector<const Event*> evs;
    for (const auto& sh : sim.shards_) {
      sh->wheel_.for_each([&evs](const Event* e) {
        // Closure (environment) events belong to the harness, which
        // re-seeds its samplers past the checkpoint; everything else is a
        // registered handler event and serializes.
        if (e->fn != nullptr) evs.push_back(e);
      });
    }
    std::sort(evs.begin(), evs.end(), [](const Event* a, const Event* b) {
      if (a->at != b->at) return a->at < b->at;
      return a->key < b->key;
    });
    w.u64(evs.size());
    for (const Event* e : evs) {
      std::uint32_t id = 0;
      if (!handler_id(e->fn, &id)) return false;
      w.i64(e->at);
      w.u64(e->key);
      w.u32(id);
      w.i32(static_cast<const Device*>(e->obj)->id());
      switch (id) {
        case kNicFlowStart:
          w.u64(static_cast<const Flow*>(e->u.misc.p1)->uid);
          break;
        case kNicTxDone:
        case kSwRefresh:
        case kSwReclaim:
          break;
        case kNicWake:
          w.i64(e->u.timer.i0);
          break;
        case kNicRto:
          w.u64(static_cast<const Flow*>(e->u.misc.p1)->uid);
          break;
        case kNicAck:
          save_ack(w, e->u.ack.node->ack);
          break;
        case kSwTxDone:
          w.i32(e->u.misc.i1);
          break;
        case kNetDeliver:
          save_packet(w, e->u.pkt.node->pkt);
          w.i32(e->u.pkt.in_port);
          break;
        case kNetSnapshot:
          save_bits(w, e->u.cold.node->bits);
          w.i32(e->u.cold.port);
          break;
        case kNetPfc:
        case kNetLinkState:
          w.i32(e->u.misc.i1);
          w.i32(e->u.misc.i2);
          break;
        default:
          return false;
      }
    }
    return true;
  }

  static void load_events(Reader& r, ShardedSimulator& sim, Network& net) {
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      const Time at = r.i64();
      const std::uint64_t key = r.u64();
      const std::uint32_t id = r.u32();
      const std::int32_t node = r.i32();
      if (id >= kHandlerCount || node < 0 || node >= sim.n_nodes_) {
        r.fail();
        return;
      }
      Shard& sh = sim.shard_of_node(node);
      Event* e = sh.pool_.alloc();
      e->at = at;
      e->key = key;
      e->fn = handler_fn(id);
      e->obj = net.device(node);
      e->u = {};
      e->payload = EvPayload::kNone;
      switch (id) {
        case kNicFlowStart: {
          Flow* f = net.flow(r.u64());
          if (f == nullptr) r.fail();
          e->u.misc = {f, 0, 0};
          break;
        }
        case kNicTxDone:
        case kSwRefresh:
        case kSwReclaim:
          break;
        case kNicWake:
          e->u.timer.i0 = r.i64();
          break;
        case kNicRto: {
          Flow* f = net.flow(r.u64());
          if (f == nullptr) r.fail();
          e->u.misc = {f, 0, 0};
          break;
        }
        case kNicAck:
          e->put_ack(sh.pack(load_ack(r)));
          break;
        case kSwTxDone:
          e->u.misc = {nullptr, r.i32(), 0};
          break;
        case kNetDeliver: {
          PacketNode* pn = sh.pack(load_packet(r, net));
          e->put_packet(pn, r.i32());
          break;
        }
        case kNetSnapshot: {
          ColdNode* c = sh.cold_slot();
          c->bits = load_bits(r);
          e->put_cold(c, r.i32());
          break;
        }
        case kNetPfc:
        case kNetLinkState: {
          const std::int32_t a = r.i32();
          const std::int32_t b = r.i32();
          e->u.misc = {nullptr, a, b};
          break;
        }
        default:
          r.fail();
          break;
      }
      if (!r.ok()) {
        sh.recycle(e);
        return;
      }
      sh.wheel_.push(e);
    }
  }
};

std::vector<std::uint8_t> Snapshot::save(ShardedSimulator& sim, Network& net,
                                         Time at) {
  // Pull every in-flight cross-shard event into its destination wheel and
  // fold the per-shard completion logs — after this, the wheels plus the
  // Network ARE the complete state.
  sim.drain_transport_for_snapshot();
  net.flow_stats();

  Writer w;
  w.u64(Impl::kMagic);
  w.u32(kVersion);
  w.i64(at);
  Impl::save_fingerprint(w, sim, net);

  // Engine counters: per-node event sequence numbers (environment
  // entities are harness-owned and restart at zero) and the per-node
  // executed-event attribution that rebuilds per-shard totals.
  const int n_nodes = sim.n_nodes_;
  for (int i = 0; i < n_nodes; ++i) w.u32(sim.seq_[static_cast<std::size_t>(i)]);
  // Setup-space counters (v2): streamed flow starts keep consuming these
  // after a restore, so they must resume exactly where the checkpoint
  // left them for the minted keys (and any re-checkpoint image) to stay
  // byte-identical to an unbroken run.
  for (int i = 0; i < n_nodes; ++i) {
    w.u32(sim.setup_seq_[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < n_nodes; ++i) {
    w.u64(sim.node_events_[static_cast<std::size_t>(i)]);
  }

  // Per-node RNG streams (fault draws + ECN marking).
  for (int i = 0; i < n_nodes; ++i) {
    std::uint64_t s[4];
    net.fault_rng_[static_cast<std::size_t>(i)].state(s);
    for (std::uint64_t x : s) w.u64(x);
    net.mark_rng_[static_cast<std::size_t>(i)].state(s);
    for (std::uint64_t x : s) w.u64(x);
  }

  // Flows, uid-sorted (the map iteration order is hash-layout-dependent).
  std::vector<const Flow*> flows;
  for (const auto& slice : net.flows_) {
    flows.reserve(flows.size() + slice.size());
    for (const auto& [uid, f] : slice) flows.push_back(f.get());
  }
  std::sort(flows.begin(), flows.end(),
            [](const Flow* a, const Flow* b) { return a->uid < b->uid; });
  w.u64(flows.size());
  for (const Flow* f : flows) Impl::save_flow(w, *f);

  // FlowStats (already folded; std::map iterates key-sorted).
  const FlowStats& st = net.stats_;
  w.u64(st.records_.size());
  for (const auto& [uid, rec] : st.records_) {
    w.u64(uid);
    Impl::save_key(w, rec.key);
    w.u64(rec.bytes);
    w.i64(rec.start);
    w.i64(rec.end);
    w.u8(rec.incast);
  }
  w.u64(st.pending_.size());
  for (const auto& [uid, end] : st.pending_) {
    w.u64(uid);
    w.i64(end);
  }
  w.u64(st.completed_);

  // Devices, node order.
  for (int node = 0; node < n_nodes; ++node) {
    Device* d = net.devices_[static_cast<std::size_t>(node)];
    if (net.topo().is_host(node)) {
      Impl::save_nic(w, *static_cast<const Nic*>(d));
    } else {
      Impl::save_switch(w, *static_cast<const Switch*>(d));
    }
  }

  // Pending events, merged across shards in (at, key) order.
  if (!Impl::save_events(w, sim)) return {};

  w.u64(Impl::kTrailer);
  return w.take();
}

bool Snapshot::restore(ShardedSimulator& sim, Network& net,
                       const std::vector<std::uint8_t>& image,
                       std::string* error) {
  const auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  bool any_flows = false;
  for (const auto& slice : net.flows_) any_flows |= !slice.empty();
  if (sim.events_processed() != 0 || any_flows) {
    return fail("restore target is not a freshly-constructed pair");
  }
  Reader r(image.data(), image.size());
  if (r.u64() != Impl::kMagic) return fail("bad magic: not a BFC snapshot");
  if (r.u32() != kVersion) return fail("snapshot version mismatch");
  const Time at = r.i64();
  if (at < 0) return fail("corrupt header: negative checkpoint time");
  if (!Impl::check_fingerprint(r, sim, net)) {
    return fail("configuration fingerprint mismatch "
                "(topology/scheme/overrides/faults differ)");
  }

  const int n_nodes = sim.n_nodes_;
  for (int i = 0; i < n_nodes; ++i) {
    sim.seq_[static_cast<std::size_t>(i)] = r.u32();
  }
  for (int i = 0; i < n_nodes; ++i) {
    sim.setup_seq_[static_cast<std::size_t>(i)] = r.u32();
  }
  for (int i = 0; i < n_nodes; ++i) {
    sim.node_events_[static_cast<std::size_t>(i)] = r.u64();
  }
  for (int i = 0; i < n_nodes; ++i) {
    std::uint64_t s[4];
    for (std::uint64_t& x : s) x = r.u64();
    net.fault_rng_[static_cast<std::size_t>(i)].set_state(s);
    for (std::uint64_t& x : s) x = r.u64();
    net.mark_rng_[static_cast<std::size_t>(i)].set_state(s);
  }
  if (!r.ok()) return fail("truncated image (engine section)");

  const std::uint64_t n_flows = r.u64();
  for (std::uint64_t i = 0; i < n_flows && r.ok(); ++i) {
    auto f = std::make_unique<Flow>();
    Impl::load_flow(r, f.get());
    const std::uint64_t uid = f->uid;
    const int owner = sim.shard_of(static_cast<int>(f->key.src));
    net.flows_[static_cast<std::size_t>(owner)][uid] = std::move(f);
  }
  if (!r.ok()) return fail("truncated image (flow section)");

  FlowStats& st = net.stats_;
  const std::uint64_t n_recs = r.u64();
  for (std::uint64_t i = 0; i < n_recs && r.ok(); ++i) {
    const std::uint64_t uid = r.u64();
    FlowRecord rec;
    rec.key = Impl::load_key(r);
    rec.bytes = r.u64();
    rec.start = r.i64();
    rec.end = r.i64();
    rec.incast = r.u8() != 0;
    st.records_[uid] = rec;
  }
  const std::uint64_t n_pend = r.u64();
  for (std::uint64_t i = 0; i < n_pend && r.ok(); ++i) {
    const std::uint64_t uid = r.u64();
    st.pending_.emplace_back(uid, r.i64());
  }
  st.completed_ = r.u64();
  if (!r.ok()) return fail("truncated image (stats section)");

  for (int node = 0; node < n_nodes && r.ok(); ++node) {
    Device* d = net.devices_[static_cast<std::size_t>(node)];
    if (net.topo().is_host(node)) {
      Impl::load_nic(r, net, static_cast<Nic*>(d));
    } else {
      Impl::load_switch(r, net, static_cast<Switch*>(d));
    }
  }
  if (!r.ok()) return fail("corrupt or truncated image (device section)");

  Impl::load_events(r, sim, net);
  if (!r.ok()) return fail("corrupt or truncated image (event section)");
  if (r.u64() != Impl::kTrailer) return fail("missing trailer");

  // Clocks and per-shard totals: every shard resumes at the checkpoint
  // time; events_run is the sum of the per-node attribution over owned
  // nodes (the harness credits its closure ticks separately, see
  // ShardedSimulator::credit_closure_events).
  for (int s = 0; s < sim.n_shards(); ++s) {
    Shard& sh = sim.shard(s);
    sh.now_ = at;
    sh.events_run_ = 0;
    sh.events_stolen_ = 0;
  }
  for (int node = 0; node < n_nodes; ++node) {
    Shard& sh = sim.shard_of_node(node);
    sh.events_run_ += sim.node_events_[static_cast<std::size_t>(node)];
  }
  return true;
}

Time Snapshot::saved_time(const std::vector<std::uint8_t>& image) {
  Reader r(image.data(), image.size());
  if (r.u64() != Impl::kMagic) return -1;
  if (r.u32() != kVersion) return -1;
  const Time at = r.i64();
  return r.ok() ? at : -1;
}

}  // namespace bfc
