#include "core/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/cc.hpp"

namespace bfc {

namespace {

// Default shared buffer: 30 us worth of the switch's aggregate port
// capacity (the upper end of Fig. 1's surveyed buffer/capacity ratios).
constexpr double kBufferSecPerCapacity = 30e-6;

// Templated over the hop container: the run-time cache is a HopVec, the
// post-run ideal-FCT reference still walks a std::vector from route().
template <typename Path>
Time path_one_way(const Path& path, const TopoGraph& topo, int probe_bytes) {
  Time t = 0;
  for (const Hop& h : path) {
    const PortInfo& link = topo.ports(h.node)[static_cast<std::size_t>(h.port)];
    t += link.delay + link.rate.time_to_send(probe_bytes);
  }
  return t;
}

template <typename Path>
double path_min_rate_bps(const Path& path, const TopoGraph& topo) {
  double r = -1;
  for (const Hop& h : path) {
    const PortInfo& link = topo.ports(h.node)[static_cast<std::size_t>(h.port)];
    if (r < 0 || link.rate.bits_per_sec() < r) r = link.rate.bits_per_sec();
  }
  return r;
}

}  // namespace

Network::Network(ShardedSimulator& sim, const TopoGraph& topo, Scheme scheme,
                 const NetworkOverrides& ov)
    : sim_(sim),
      topo_(topo),
      params_(NetParams::derive(scheme, ov)),
      overrides_(ov) {
  flows_.resize(static_cast<std::size_t>(sim_.n_shards()));
  starts_.resize(static_cast<std::size_t>(sim_.n_shards()));
  fault_rng_.reserve(static_cast<std::size_t>(topo_.num_nodes()));
  mark_rng_.reserve(static_cast<std::size_t>(topo_.num_nodes()));
  for (int node = 0; node < topo_.num_nodes(); ++node) {
    const auto n = static_cast<std::uint64_t>(node);
    fault_rng_.emplace_back(mix64((ov.fault_seed << 1) ^ n));
    mark_rng_.emplace_back(mix64((ov.fault_seed << 1) ^ n ^ 0xECECECECULL));
  }
  devices_.assign(static_cast<std::size_t>(topo_.num_nodes()), nullptr);
  for (int node = 0; node < topo_.num_nodes(); ++node) {
    if (topo_.is_host(node)) {
      nics_.push_back(std::make_unique<Nic>(*this, node));
      nic_list_.push_back(nics_.back().get());
      devices_[static_cast<std::size_t>(node)] = nics_.back().get();
    } else {
      switches_.push_back(
          std::make_unique<Switch>(*this, node, default_buffer(node)));
      switch_list_.push_back(switches_.back().get());
      devices_[static_cast<std::size_t>(node)] = switches_.back().get();
    }
  }
}

Network::~Network() = default;

std::int64_t Network::default_buffer(int node) const {
  if (params_.inf_buffer) {
    return std::numeric_limits<std::int64_t>::max() / 4;
  }
  if (topo_.tier_of(node) == NodeTier::kGateway &&
      overrides_.gateway_buffer_bytes) {
    return *overrides_.gateway_buffer_bytes;
  }
  if (overrides_.buffer_bytes) return *overrides_.buffer_bytes;
  double capacity_bps = 0;
  for (const PortInfo& port : topo_.ports(node)) {
    capacity_bps += port.rate.bits_per_sec();
  }
  return static_cast<std::int64_t>(capacity_bps / 8.0 *
                                   kBufferSecPerCapacity);
}

Flow* Network::make_flow(const FlowKey& key, std::uint64_t bytes,
                         std::uint64_t uid, bool incast) {
  auto owned = std::make_unique<Flow>();
  Flow* f = owned.get();
  f->uid = uid;
  f->key = key;
  f->bytes = bytes == 0 ? 1 : bytes;
  f->total_pkts = static_cast<std::uint32_t>(
      (f->bytes + kPayloadBytes - 1) / kPayloadBytes);
  f->incast = incast;
  f->vfid = vfid_of(key, static_cast<std::uint32_t>(params_.n_vfids));
  // No route, no RTT, no CC state here: everything derived from the path
  // resolves on demand (resolve_flow / resolve_reverse_route), so a
  // prepared trace is identity bytes only.
  flows_[static_cast<std::size_t>(
             sim_.shard_of(static_cast<int>(key.src)))]
      .emplace(uid, std::move(owned));
  return f;
}

void Network::resolve_flow(Flow* f) {
  if (f->path_id != TopoGraph::kNoPath) return;
  // The derived latency/CC fields need the hops once; only the packed id
  // is retained.
  HopVec hv;
  topo_.route_into(f->key, hv);
  f->path_id = topo_.compress_path(f->key, hv);
  f->ack_lat = path_one_way(hv, topo_, kAckWireBytes);
  f->base_rtt = path_one_way(hv, topo_, kMtuWireBytes) + f->ack_lat;
  const double line = path_min_rate_bps(hv, topo_);
  const double bdp_pkts = std::max(
      2.0, line * to_sec(f->base_rtt) / (8.0 * kMtuWireBytes));
  cc_init(params_, *f, line, bdp_pkts);
  // pFabric leans on a tight RTO (loss is its signal); the BFC family is
  // lossless, so like RoCE NICs it keeps a ms-scale timeout as a last
  // resort — a tight timer would misread long backpressure pauses as loss
  // and flood paused queues with go-back-N rewinds.
  f->rto = std::max<Time>(params_.pfabric ? 3 * f->base_rtt
                                          : 4 * f->base_rtt,
                          params_.pfabric
                              ? microseconds(30)
                              : (params_.bfc ? milliseconds(1)
                                             : microseconds(100)));
}

void Network::resolve_reverse_route(Flow* f) {
  const FlowKey rkey{f->key.dst, f->key.src, f->key.dst_port,
                     f->key.src_port};
  if (faults_ != nullptr) {
    // Same lazy epoch contract as the forward path, on the destination
    // NIC's shard (the only writer of rpath_id/rvfid).
    const Time now =
        sim_.shard_of_node(static_cast<int>(f->key.dst)).now();
    const auto epoch = static_cast<std::int32_t>(faults_->epoch_at(now));
    if (f->rroute_epoch == epoch && f->rpath_id != TopoGraph::kNoPath) {
      return;
    }
    HopVec hv;
    if (!topo_.route_into(rkey, hv, *faults_, now)) {
      // No live reverse path: keep the structural route — those acks
      // blackhole at the dead hop and the sender's RTO recovers, the
      // same way real gear loses acks on a cut link.
      topo_.route_into(rkey, hv);
    }
    f->rpath_id = topo_.compress_path(rkey, hv);
    f->rvfid = vfid_of(rkey, static_cast<std::uint32_t>(params_.n_vfids));
    f->rroute_epoch = epoch;
    return;
  }
  if (f->rpath_id != TopoGraph::kNoPath) return;
  f->rpath_id = topo_.path_id(rkey);
  f->rvfid = vfid_of(rkey, static_cast<std::uint32_t>(params_.n_vfids));
}

void Network::install_faults(const FaultPlan& plan) {
  if (plan.empty()) return;
  faults_ = &plan;
  // One event per transition endpoint, posted on that endpoint's own
  // shard: the port-down flag a device keeps is shard-local state, so
  // the flip rides the engine's ordinary (timestamp, entity, seq)
  // ordering and fires bit-identically at any shard count.
  for (const FaultPlan::Transition& tr : plan.transitions()) {
    const int ends[2] = {tr.node_a, tr.node_b};
    for (int i = 0; i < 2; ++i) {
      const int node = ends[i];
      const int peer = ends[1 - i];
      int port = -1;
      const auto& pl = topo_.ports(node);
      for (std::size_t p = 0; p < pl.size(); ++p) {
        if (pl[p].peer == peer) {
          port = static_cast<int>(p);
          break;
        }
      }
      if (port < 0) continue;  // plan names a non-link; nothing to flip
      Shard& s = sim_.shard_of_node(node);
      Event* e = s.make_setup(node, tr.at);
      e->fn = &Network::ev_link_state;
      e->obj = devices_[static_cast<std::size_t>(node)];
      e->u.misc = {nullptr, port, tr.up ? 1 : 0};
      s.post_local(e);
    }
  }
}

Network::RouteCheck Network::check_route(Flow* f, Time now) {
  // Parked flows re-validate on every retry (their stale path is known
  // dead); everyone else only when the plan's epoch moved under them.
  const auto epoch = static_cast<std::int32_t>(faults_->epoch_at(now));
  if (epoch == f->route_epoch && f->parked_since < 0) {
    return RouteCheck::kUnchanged;
  }
  HopVec fresh;
  if (!topo_.route_into(f->key, fresh, *faults_, now)) {
    // Unreachable: park via the pacing gate with capped exponential
    // backoff on top of the RTO floor. The FlowIndex pacing class owns
    // the retry wake-up; no new scheduler machinery.
    constexpr std::uint8_t kMaxBackoffExp = 4;  // cap at 16x RTO
    const Time base = f->rto > 0 ? f->rto : milliseconds(1);
    f->next_send = now + (base << f->backoff_exp);
    if (f->backoff_exp < kMaxBackoffExp) ++f->backoff_exp;
    if (f->parked_since < 0) f->parked_since = now;
    return RouteCheck::kUnreachable;
  }
  f->route_epoch = epoch;
  f->backoff_exp = 0;
  f->parked_since = -1;
  // (key, path id) -> hops is a bijection, so an id compare is a hop
  // compare without expanding the cached route.
  const std::uint32_t fresh_id = topo_.compress_path(f->key, fresh);
  if (fresh_id == f->path_id) return RouteCheck::kUnchanged;
  f->path_id = fresh_id;
  // Pure path-derived latencies follow the detour; CC and RTO state
  // deliberately survive a reroute (resetting the window mid-flow would
  // punish the flow twice for one fault).
  f->ack_lat = path_one_way(fresh, topo_, kAckWireBytes);
  f->base_rtt = path_one_way(fresh, topo_, kMtuWireBytes) + f->ack_lat;
  return RouteCheck::kRerouted;
}

void Network::start_flow(const FlowKey& key, std::uint64_t bytes,
                         std::uint64_t uid, bool incast) {
  Flow* f = make_flow(key, bytes, uid, incast);
  stats_.on_flow_started(uid, key, f->bytes,
                         sim_.shard_of_node(static_cast<int>(key.src)).now(),
                         incast);
  static_cast<Nic*>(devices_[key.src])->add_flow(f);
}

void Network::stream_flow(const FlowKey& key, std::uint64_t bytes,
                          std::uint64_t uid, bool incast, Time at) {
  Flow* f = make_flow(key, bytes, uid, incast);
  const int shard = sim_.shard_of(static_cast<int>(key.src));
  starts_[static_cast<std::size_t>(shard)].push_back(
      {uid, key, f->bytes, at, incast});
  // Setup sequence space, source entity, arrival timestamp: the run's
  // (at, key) order is the trace order whenever the flow is streamed in.
  Shard& s = sim_.shard(shard);
  Event* e = s.make_setup(static_cast<int>(key.src), at);
  e->fn = &Nic::ev_flow_start;
  e->obj = devices_[key.src];
  e->u.misc = {f, 0, 0};
  s.post_local(e);
}

void Network::on_flow_complete(Flow* f, Time now) {
  // Always called on the destination's shard; the Shard routes the entry
  // to its own log, or to the batch-local buffer under work stealing.
  sim_.shard_of_node(static_cast<int>(f->key.dst))
      .log_completion(f->uid, now);
}

FlowStats& Network::flow_stats() {
  // Fold order (shard id, then per-shard completion order) only affects
  // the order of map updates, never the records themselves, so the result
  // is identical for every shard count. Streamed starts fold first so
  // every completion finds its record.
  for (auto& log : starts_) {
    for (const StartRec& rec : log) {
      stats_.on_flow_started(rec.uid, rec.key, rec.bytes, rec.at, rec.incast);
    }
    log.clear();
  }
  for (int s = 0; s < sim_.n_shards(); ++s) {
    auto& log = sim_.shard(s).completions();
    for (const auto& [uid, end] : log) {
      stats_.on_flow_completed(uid, end);
    }
    log.clear();
  }
  return stats_;
}

std::int64_t Network::delivered_payload_bytes() const {
  std::int64_t total = 0;
  for (const Nic* nic : nic_list_) total += nic->stats().delivered_payload;
  return total;
}

void Network::ev_deliver(Event& e) {
  auto* d = static_cast<Device*>(e.obj);
  if (d->net().roll_data_loss(d->id())) return;  // wire corruption
  d->arrive(e.u.pkt.node->pkt, e.u.pkt.in_port);
}

void Network::ev_snapshot(Event& e) {
  // The snapshot moves out of its side-table slot; the post-handler
  // recycle scrubs and frees the slot.
  static_cast<Device*>(e.obj)->on_bfc_snapshot(
      e.u.cold.port, std::move(e.u.cold.node->bits));
}

void Network::ev_pfc(Event& e) {
  static_cast<Device*>(e.obj)->on_pfc(e.u.misc.i1, e.u.misc.i2 != 0);
}

void Network::ev_link_state(Event& e) {
  static_cast<Device*>(e.obj)->on_link_state(e.u.misc.i1, e.u.misc.i2 != 0);
}

BfcTotals Network::bfc_totals() const {
  BfcTotals t;
  for (const Switch* sw : switch_list_) {
    t.pauses += sw->bfc_counts().pauses;
    t.resumes += sw->bfc_counts().resumes;
    t.overflow_packets += sw->bfc_counts().overflow_packets;
  }
  return t;
}

SwitchTotals Network::switch_totals() const {
  SwitchTotals t;
  for (const Switch* sw : switch_list_) {
    t.pfc_pauses_sent += sw->totals().pfc_pauses_sent;
    t.pfc_resumes_sent += sw->totals().pfc_resumes_sent;
    t.drops += sw->totals().drops;
    t.blackholed += sw->totals().blackholed;
  }
  return t;
}

NicStats Network::nic_totals() const {
  NicStats t;
  for (const Nic* nic : nic_list_) {
    const NicStats& s = nic->stats();
    t.rto_fires += s.rto_fires;
    t.data_retx += s.data_retx;
    t.pkts_sent += s.pkts_sent;
    t.delivered_payload += s.delivered_payload;
    t.acks_data_path += s.acks_data_path;
    t.acks_deferred += s.acks_deferred;
    t.reroutes += s.reroutes;
    t.unreachable_parks += s.unreachable_parks;
    t.blackholed += s.blackholed;
  }
  return t;
}

double Network::collision_frac() const {
  std::int64_t assignments = 0, collisions = 0;
  for (const Switch* sw : switch_list_) {
    assignments += sw->assignments();
    collisions += sw->collisions();
  }
  return assignments == 0
             ? 0
             : static_cast<double>(collisions) /
                   static_cast<double>(assignments);
}

Network::IdealFctFn Network::ideal_fct_fn() const {
  const TopoGraph* topo = &topo_;
  return [topo](const FlowKey& key, std::uint64_t bytes) -> Time {
    const std::vector<Hop> path = topo->route(key);
    const auto n_pkts =
        static_cast<std::int64_t>((bytes + kPayloadBytes - 1) / kPayloadBytes);
    const std::int64_t wire =
        static_cast<std::int64_t>(bytes) + n_pkts * kHeaderBytes;
    // Store-and-forward pipeline: first packet pays every hop, the rest
    // stream at the bottleneck.
    Time t = path_one_way(path, *topo, kMtuWireBytes);
    const double min_rate = path_min_rate_bps(path, *topo);
    const std::int64_t rest = wire - kMtuWireBytes;
    if (rest > 0) {
      t += static_cast<Time>(static_cast<double>(rest) * 8e9 / min_rate);
    }
    return t < 1 ? 1 : t;
  };
}

Network::PfcFractions Network::pfc_fractions(Time window) const {
  const Time now = sim_.now();
  std::int64_t t2s_ns = 0, s2t_ns = 0, t2s_links = 0, s2t_links = 0;
  for (const Switch* sw : switch_list_) {
    const NodeTier tier = topo_.tier_of(sw->id());
    if (tier == NodeTier::kTor) {
      t2s_ns += sw->paused_ns_toward(NodeTier::kSpine, now);
    } else if (tier == NodeTier::kSpine) {
      s2t_ns += sw->paused_ns_toward(NodeTier::kTor, now);
    }
    for (const PortInfo& port : topo_.ports(sw->id())) {
      const NodeTier peer = topo_.tier_of(port.peer);
      if (tier == NodeTier::kTor && peer == NodeTier::kSpine) ++t2s_links;
      if (tier == NodeTier::kSpine && peer == NodeTier::kTor) ++s2t_links;
    }
  }
  PfcFractions f;
  if (window > 0 && t2s_links > 0) {
    f.tor_to_spine = static_cast<double>(t2s_ns) /
                     (static_cast<double>(t2s_links) *
                      static_cast<double>(window));
  }
  if (window > 0 && s2t_links > 0) {
    f.spine_to_tor = static_cast<double>(s2t_ns) /
                     (static_cast<double>(s2t_links) *
                      static_cast<double>(window));
  }
  return f;
}

}  // namespace bfc
