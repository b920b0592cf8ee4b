// The network: topology + devices + flows, wired to the sharded engine.
//
// Owns every NIC, switch, and Flow for the length of a run; routes control
// frames (acks, PFC, BFC snapshots) outside the data queues (unless
// `acks_in_data` puts acks back in); and aggregates the counters the
// harness reports. All mutable run state is owned by exactly one shard —
// per-node RNGs, per-NIC delivery counters, per-shard completion logs — so
// multi-shard runs need no locks and stay bit-identical to single-shard.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/fault.hpp"
#include "core/flow.hpp"
#include "core/nic.hpp"
#include "core/packet.hpp"
#include "core/params.hpp"
#include "core/switch.hpp"
#include "core/topology.hpp"
#include "engine/sharded_sim.hpp"
#include "sim/rng.hpp"

namespace bfc {

class Network {
 public:
  Network(ShardedSimulator& sim, const TopoGraph& topo, Scheme scheme,
          const NetworkOverrides& ov = {});
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Starts a flow of `bytes` payload bytes from key.src to key.dst, right
  // now. Valid before run_until() starts, or at runtime on a single-shard
  // engine (the legacy bench path).
  void start_flow(const FlowKey& key, std::uint64_t bytes, std::uint64_t uid,
                  bool incast = false);

  // Trace-driven start (the engine path used by run_experiment): records
  // the flow's identity now and activates it at `at` on the sender's
  // shard, under a setup-space event key. Deliberately does NOT resolve a
  // route or derive RTT/CC state — starting a trace on a 16384-host
  // fabric costs identity bytes only; resolution happens at activation
  // (resolve_flow). Legal before run_until() and mid-run from a
  // shard-pinned pump closure running on the *owning* (key.src) shard:
  // all state it touches is per-shard (the shard's flow map slice and its
  // start log, folded by flow_stats()).
  void stream_flow(const FlowKey& key, std::uint64_t bytes,
                   std::uint64_t uid, bool incast, Time at);

  // On-demand resolution, idempotent. resolve_flow fills the forward hop
  // cache and the derived unloaded-RTT / congestion-control / RTO state;
  // the source NIC calls it at activation (first send), on its own
  // shard. resolve_reverse_route fills the reverse hop cache + VFID; the
  // destination NIC calls it at the first ack under `acks_in_data`.
  void resolve_flow(Flow* f);
  void resolve_reverse_route(Flow* f);

  // Fault plane. install_faults stores the immutable schedule and
  // pre-seeds one ev_link_state event per transition endpoint, each on
  // that endpoint's own shard — faults then fire as ordinary engine
  // events, bit-identically at any shard count. Must be called before
  // run_until(), right after construction (the pre-seed consumes
  // per-entity event sequence numbers, so its position in the setup
  // order is part of the determinism contract). `plan` must outlive the
  // Network.
  void install_faults(const FaultPlan& plan);
  const FaultPlan* faults() const { return faults_; }

  // Checkpoint restore path (core/snapshot.hpp): adopts the schedule
  // WITHOUT pre-seeding transition events — the saved event list already
  // carries the not-yet-fired ev_link_state events, and re-posting would
  // both double-fire them and consume sequence numbers the snapshot
  // accounted to other events. Same lifetime contract as install_faults.
  void adopt_faults(const FaultPlan& plan) { faults_ = &plan; }

  // Send-path route validation (source NIC's shard). Cheap epoch check
  // against the plan; on mismatch, re-resolves under the liveness mask.
  // kUnreachable means the flow was parked: next_send pushed out by a
  // capped exponential backoff on top of the RTO floor — the caller must
  // skip the send and let the pacing machinery retry.
  enum class RouteCheck { kUnchanged = 0, kRerouted, kUnreachable };
  RouteCheck check_route(Flow* f, Time now);

  const std::vector<Switch*>& switches() const { return switch_list_; }
  const std::vector<Nic*>& nics() const { return nic_list_; }
  // Folds the shards' completion logs (Shard::completions — written
  // shard-locally, or batch-locally under work stealing and merged by the
  // owner), then returns the record set.
  FlowStats& flow_stats();
  std::int64_t delivered_payload_bytes() const;

  BfcTotals bfc_totals() const;
  SwitchTotals switch_totals() const;
  double collision_frac() const;
  // Summed NIC counters (ack-uplink arbitration telemetry among them).
  NicStats nic_totals() const;

  // Unloaded flow-completion time of (key, bytes): the FCT-slowdown
  // denominator.
  using IdealFctFn = std::function<Time(const FlowKey&, std::uint64_t)>;
  IdealFctFn ideal_fct_fn() const;

  struct PfcFractions {
    double tor_to_spine = 0;   // ToR egress toward spines paused
    double spine_to_tor = 0;   // spine egress toward ToRs paused
  };
  PfcFractions pfc_fractions(Time window) const;

  // --- internals shared with the devices ---
  ShardedSimulator& sim() { return sim_; }
  const TopoGraph& topo() const { return topo_; }
  const NetParams& params() const { return params_; }
  Device* device(int node) { return devices_[static_cast<std::size_t>(node)]; }
  // Hot path (Nic::on_ack): flows live in per-shard map slices keyed by
  // the *source* host's owning shard, so the runtime lookup — always made
  // on that shard — touches only shard-local state and streamed inserts
  // never race a concurrent reader.
  Flow* flow(int shard_idx, std::uint64_t uid) {
    auto& m = flows_[static_cast<std::size_t>(shard_idx)];
    auto it = m.find(uid);
    return it == m.end() ? nullptr : it->second.get();
  }
  // Offline path (snapshot restore, harness, tests): scans every slice.
  Flow* flow(std::uint64_t uid) {
    for (auto& m : flows_) {
      auto it = m.find(uid);
      if (it != m.end()) return it->second.get();
    }
    return nullptr;
  }
  // Fault/marking draws are per-node so their consumption order is a
  // deterministic function of that node's event sequence, not of the
  // global (shard-count-dependent) interleaving.
  bool roll_data_loss(int node) {
    return params_.data_loss > 0 &&
           fault_rng_[static_cast<std::size_t>(node)].uniform() <
               params_.data_loss;
  }
  bool roll_ctrl_loss(int node) {
    return params_.ctrl_loss > 0 &&
           fault_rng_[static_cast<std::size_t>(node)].uniform() <
               params_.ctrl_loss;
  }
  Rng& mark_rng(int node) {
    return mark_rng_[static_cast<std::size_t>(node)];
  }
  void on_flow_complete(Flow* f, Time now);

  // Pooled event handlers shared by the devices (payloads per
  // engine/event.hpp: arena handles in the cache-line union).
  static void ev_deliver(Event& e);   // obj=Device, u.pkt={node, in_port}
  static void ev_snapshot(Event& e);  // obj=Device, u.cold={bits slot, port}
  static void ev_pfc(Event& e);       // obj=Device, u.misc={-, port, paused}
  static void ev_link_state(Event& e);  // obj=Device, u.misc={-, port, up}

 private:
  friend class Snapshot;  // checkpoint/restore of flows_/stats_/RNG streams

  Flow* make_flow(const FlowKey& key, std::uint64_t bytes, std::uint64_t uid,
                  bool incast);
  std::int64_t default_buffer(int node) const;

  ShardedSimulator& sim_;
  TopoGraph topo_;
  NetParams params_;
  NetworkOverrides overrides_;
  std::vector<Device*> devices_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<Nic*> nic_list_;
  std::vector<Switch*> switch_list_;
  // Flow ownership, sliced by the source host's shard (see flow()).
  std::vector<std::unordered_map<std::uint64_t, std::unique_ptr<Flow>>> flows_;
  FlowStats stats_;
  // Per-shard start logs for streamed flows (stats_ itself is not safe to
  // touch mid-run from concurrent shards); folded by flow_stats() ahead
  // of the completion fold so every completion finds its record.
  struct StartRec {
    std::uint64_t uid = 0;
    FlowKey key;
    std::uint64_t bytes = 0;
    Time at = 0;
    bool incast = false;
  };
  std::vector<std::vector<StartRec>> starts_;
  const FaultPlan* faults_ = nullptr;  // immutable schedule, not owned
  std::vector<Rng> fault_rng_;  // per node
  std::vector<Rng> mark_rng_;   // per node
};

inline Device::Device(Network& net, int node)
    : net_(net), node_(node), shard_(&net.sim().shard_of_node(node)) {}

}  // namespace bfc
