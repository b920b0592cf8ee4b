// Three-tier fat-tree construction and routing: link symmetry, pod
// labelling, and valid host-to-host paths at every locality (same edge,
// same pod, inter-pod) for the small, 1024-, 4096-, 16384-, and
// 65536-host presets — plus the lazy-state contract that opens the big
// tiers: an idle network allocates no per-port queue arrays, no
// flow-table entries or chunks, no sender-index heap, and no flow routes.
#include "core/topology.hpp"

#include "core/network.hpp"
#include "engine/sharded_sim.hpp"

#include "test_util.hpp"

using namespace bfc;

namespace {

// Walks `path` hop by hop: every hop's egress port must point at the next
// transmitter (or, for the final hop, at the destination host).
void check_path(const TopoGraph& topo, const std::vector<Hop>& path,
                int src, int dst) {
  CHECK(!path.empty());
  CHECK(path.front().node == src);
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Hop& h = path[i];
    CHECK(h.port >= 0);
    CHECK(h.port < static_cast<int>(topo.ports(h.node).size()));
    const PortInfo& link = topo.ports(h.node)[static_cast<std::size_t>(h.port)];
    const int expect = i + 1 < path.size() ? path[i + 1].node : dst;
    CHECK(link.peer == expect);
    // peer_port indexes the reverse link on the peer.
    const PortInfo& back =
        topo.ports(link.peer)[static_cast<std::size_t>(link.peer_port)];
    CHECK(back.peer == h.node);
  }
}

void check_topo(const ThreeTierConfig& cfg) {
  const TopoGraph topo = TopoGraph::three_tier(cfg);
  CHECK(topo.num_hosts() == cfg.num_hosts());

  int n_edge = 0, n_agg = 0, n_core = 0;
  for (int node = 0; node < topo.num_nodes(); ++node) {
    switch (topo.tier_of(node)) {
      case NodeTier::kHost:
        CHECK(topo.ports(node).size() == 1);
        CHECK(topo.pod_of(node) >= 0);
        break;
      case NodeTier::kTor:
        ++n_edge;
        CHECK(static_cast<int>(topo.ports(node).size()) ==
              cfg.hosts_per_edge + cfg.aggs_per_pod);
        break;
      case NodeTier::kAgg:
        ++n_agg;
        CHECK(static_cast<int>(topo.ports(node).size()) ==
              cfg.edges_per_pod + cfg.cores_per_agg);
        break;
      case NodeTier::kCore:
        ++n_core;
        // Each core touches every pod exactly once.
        CHECK(static_cast<int>(topo.ports(node).size()) == cfg.n_pods);
        CHECK(topo.pod_of(node) == -1);
        break;
      default:
        CHECK(false);
    }
  }
  CHECK(n_edge == cfg.n_pods * cfg.edges_per_pod);
  CHECK(n_agg == cfg.n_pods * cfg.aggs_per_pod);
  CHECK(n_core == cfg.aggs_per_pod * cfg.cores_per_agg);

  const auto& hosts = topo.hosts();
  auto route_between = [&](int src, int dst, std::uint16_t sport) {
    FlowKey key{static_cast<std::uint32_t>(src),
                static_cast<std::uint32_t>(dst), sport, 80};
    const auto path = topo.route(key);
    check_path(topo, path, src, dst);
    return path;
  };

  // Same edge: host -> edge (2 transmitters).
  CHECK(route_between(hosts[0], hosts[1], 1000).size() == 2);
  // Same pod, different edge: host -> edge -> agg -> edge (4).
  CHECK(route_between(hosts[0], hosts[cfg.hosts_per_edge], 1001).size() == 4);
  // Inter-pod: host -> edge -> agg -> core -> agg -> edge (6).
  const int other_pod = cfg.edges_per_pod * cfg.hosts_per_edge;
  CHECK(route_between(hosts[0], hosts[other_pod], 1002).size() == 6);

  // A spread of ECMP'd pairs all produce valid paths.
  for (int i = 0; i < 200; ++i) {
    const int src = hosts[static_cast<std::size_t>(
        (i * 131) % topo.num_hosts())];
    const int dst = hosts[static_cast<std::size_t>(
        (i * 197 + 57) % topo.num_hosts())];
    if (src == dst) continue;
    route_between(src, dst, static_cast<std::uint16_t>(2000 + i));
  }

  // Partition keeps pods whole at any shard count.
  for (int shards : {1, 2, 3, 4}) {
    const auto part = topo.partition(shards);
    for (int node = 0; node < topo.num_nodes(); ++node) {
      CHECK(part[static_cast<std::size_t>(node)] >= 0);
      CHECK(part[static_cast<std::size_t>(node)] < shards);
    }
    // Same pod => same shard.
    for (int a = 0; a < topo.num_nodes(); ++a) {
      for (int b = a + 1; b < topo.num_nodes() && b < a + 40; ++b) {
        if (topo.pod_of(a) >= 0 && topo.pod_of(a) == topo.pod_of(b)) {
          CHECK(part[static_cast<std::size_t>(a)] ==
                part[static_cast<std::size_t>(b)]);
        }
      }
    }
  }
}

}  // namespace

// The partitioner must spread a preset's pods evenly: at power-of-two
// shard counts every shard gets the same host total, and the host-less
// core groups spread instead of piling onto one shard. Placement reads
// the build-time group-weight tables, never materialized devices.
void check_partition_balance(const ThreeTierConfig& cfg) {
  const TopoGraph topo = TopoGraph::three_tier(cfg);
  CHECK(topo.num_groups() > 0);
  int weight_hosts = 0;
  for (const int h : topo.group_hosts()) weight_hosts += h;
  CHECK(weight_hosts == cfg.num_hosts());  // weights cover every host
  for (int shards : {1, 2, 4, 8}) {
    const auto part = topo.partition(shards);
    std::vector<int> hosts(static_cast<std::size_t>(shards), 0);
    std::vector<int> pod_shard(static_cast<std::size_t>(cfg.n_pods), -1);
    for (int node = 0; node < topo.num_nodes(); ++node) {
      const int s = part[static_cast<std::size_t>(node)];
      CHECK(s >= 0 && s < shards);
      if (topo.is_host(node)) ++hosts[static_cast<std::size_t>(s)];
      const int pod = topo.pod_of(node);
      if (pod >= 0) {
        if (pod_shard[static_cast<std::size_t>(pod)] < 0) {
          pod_shard[static_cast<std::size_t>(pod)] = s;
        }
        CHECK(pod_shard[static_cast<std::size_t>(pod)] == s);
      }
    }
    for (int s = 0; s < shards; ++s) {
      CHECK(hosts[static_cast<std::size_t>(s)] == cfg.num_hosts() / shards);
    }
  }
}

// The lazy-state contract that opens the 16384-host tier: constructing
// the full network and running it idle — with flows *prepared* but not
// yet activated — allocates no per-port queue arrays, no flow-table
// entries or chunks, no receiver slots, and no flow routes. (Mirrors
// PR 4's idle receiver-slab test, one layer further down.)
void idle_t3_16384_allocates_nothing() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_16384());
  CHECK(topo.num_hosts() == 16384);
  ShardedSimulator sim(topo, 2);
  Network net(sim, topo, Scheme::kBfc);
  // Prepared (future) flows must cost identity only: activation — and
  // with it route resolution — sits past the run horizon.
  const auto& hosts = topo.hosts();
  for (std::uint64_t uid = 1; uid <= 64; ++uid) {
    const int src = hosts[static_cast<std::size_t>(uid * 131 % 16384)];
    const int dst = hosts[static_cast<std::size_t>((uid * 197 + 57) % 16384)];
    if (src == dst) continue;
    const FlowKey key{static_cast<std::uint32_t>(src),
                      static_cast<std::uint32_t>(dst),
                      static_cast<std::uint16_t>(1000 + uid), 80};
    net.stream_flow(key, 100'000, uid, false, milliseconds(10));
  }
  sim.run_until(microseconds(200));

  std::size_t eg_ports = 0, in_ports = 0, entries = 0, chunks = 0;
  for (const Switch* sw : net.switches()) {
    eg_ports += sw->live_egress_ports();
    in_ports += sw->live_ingress_ports();
    entries += sw->table_entries();
    chunks += sw->table_chunks();
  }
  CHECK(eg_ports == 0);  // no per-port queue arrays materialized
  CHECK(in_ports == 0);  // no Bloom filters / PFC accounting either
  CHECK(entries == 0);   // no flow-table entries
  CHECK(chunks == 0);    // ...and no flow-table chunk slabs
  std::size_t rcv_slots = 0, sender_slabs = 0, fifo_entries = 0;
  for (const Nic* nic : net.nics()) {
    rcv_slots += nic->receiver_slots();
    // Sender side (PR 7): an idle NIC's FlowIndex owns no blocked-list
    // slab and its intrusive ready-FIFO holds nothing — the index costs
    // three pointers, not a deque chunk per host.
    if (nic->flow_index().slab_live()) ++sender_slabs;
    fifo_entries += nic->flow_index().eligible_size();
  }
  CHECK(rcv_slots == 0);
  CHECK(sender_slabs == 0);
  CHECK(fifo_entries == 0);
  for (std::uint64_t uid = 1; uid <= 64; ++uid) {
    const Flow* f = net.flow(uid);
    if (f == nullptr) continue;  // (src == dst pairs were skipped)
    // No route resolved before activation: the packed-id cache is still
    // the unresolved sentinel in both directions.
    CHECK(f->path_id == TopoGraph::kNoPath);
    CHECK(f->rpath_id == TopoGraph::kNoPath);
  }
}

int main() {
  check_topo(ThreeTierConfig::t3_small());
  check_topo(ThreeTierConfig::t3_1024());
  check_topo(ThreeTierConfig::t3_4096());
  check_topo(ThreeTierConfig::t3_16384());
  check_topo(ThreeTierConfig::t3_65536());
  check_partition_balance(ThreeTierConfig::t3_4096());
  check_partition_balance(ThreeTierConfig::t3_16384());
  check_partition_balance(ThreeTierConfig::t3_65536());
  idle_t3_16384_allocates_nothing();
  return 0;
}
