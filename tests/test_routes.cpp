// On-demand routing: the compact resolver (TopoGraph::route_into, the one
// flows use on their first send) must be hop-for-hop identical to the
// eager reference resolver (TopoGraph::route, the prepare-time path the
// simulator used before routes went lazy), across every topology family
// and locality class. Plus the end-to-end property: a flow whose route
// was resolved lazily during a run carries exactly the path the eager
// resolver would have given it at prepare time.
#include <cstdint>
#include <vector>

#include "core/fault.hpp"
#include "core/network.hpp"
#include "core/topology.hpp"
#include "sim/rng.hpp"

#include "test_util.hpp"

using namespace bfc;

namespace {

void check_same(const TopoGraph& topo, const FlowKey& key) {
  const std::vector<Hop> eager = topo.route(key);
  HopVec lazy;
  topo.route_into(key, lazy);
  CHECK(lazy.size() == eager.size());
  for (std::size_t i = 0; i < lazy.size(); ++i) {
    CHECK(lazy[i] == eager[i]);
  }
  // The packed id round-trips to the exact hop sequence — this is the
  // invariant that lets flows cache 4 bytes instead of an 8-hop vector.
  const std::uint32_t id = topo.compress_path(key, lazy);
  CHECK(id != TopoGraph::kNoPath);
  HopVec expanded;
  topo.expand_path(key, id, expanded);
  CHECK(expanded.size() == lazy.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    CHECK(expanded[i] == lazy[i]);
  }
}

// Random (src, dst, ports) pairs across several seeds: the ECMP draws
// depend on the whole key, so sweeping ports exercises every uplink
// choice at every locality (same edge, same pod, inter-pod, cross-DC).
void differential(const char* name, const TopoGraph& topo,
                  std::uint64_t seed, int n_pairs) {
  Rng rng(seed);
  const auto& hosts = topo.hosts();
  int checked = 0;
  while (checked < n_pairs) {
    const int src = hosts[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(hosts.size()) - 1))];
    const int dst = hosts[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(hosts.size()) - 1))];
    if (src == dst) continue;
    const FlowKey key{static_cast<std::uint32_t>(src),
                      static_cast<std::uint32_t>(dst),
                      static_cast<std::uint16_t>(rng.uniform_int(1, 65535)),
                      static_cast<std::uint16_t>(rng.uniform_int(1, 65535))};
    check_same(topo, key);
    // The reverse direction is its own key (acks_in_data resolves it
    // independently at the receiver).
    const FlowKey rkey{key.dst, key.src, key.dst_port, key.src_port};
    check_same(topo, rkey);
    ++checked;
  }
  std::printf("route differential ok: %s (%d pairs, seed %llu)\n", name,
              n_pairs, static_cast<unsigned long long>(seed));
}

// End to end: run real traffic, then compare every activated flow's
// lazily-filled hop cache against a fresh eager resolution.
void lazy_matches_eager_after_run() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  ShardedSimulator sim(topo, 2);
  Network net(sim, topo, Scheme::kBfc);
  std::vector<std::uint64_t> uids;
  Rng rng(7);
  const auto& hosts = topo.hosts();
  std::uint64_t uid = 1;
  for (int i = 0; i < 64; ++i) {
    const int src = hosts[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(hosts.size()) - 1))];
    const int dst = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    if (src == dst) continue;
    const FlowKey key{static_cast<std::uint32_t>(src),
                      static_cast<std::uint32_t>(dst),
                      static_cast<std::uint16_t>(1000 + i), 80};
    net.stream_flow(key, 20'000, uid, false, microseconds(i));
    uids.push_back(uid);
    ++uid;
  }
  sim.run_until(milliseconds(4));
  net.flow_stats().apply_tags();
  CHECK(net.flow_stats().completed() == uids.size());
  for (const std::uint64_t u : uids) {
    const Flow* f = net.flow(u);
    CHECK(f != nullptr);
    CHECK(f->path_id != TopoGraph::kNoPath);  // activated => resolved
    const std::vector<Hop> eager = topo.route(f->key);
    HopVec cached;
    topo.expand_path(f->key, f->path_id, cached);
    CHECK(cached.size() == eager.size());
    for (std::size_t i = 0; i < cached.size(); ++i) {
      CHECK(cached[i] == eager[i]);
    }
  }
  std::printf("lazy-resolved flow paths match eager resolver (%zu flows)\n",
              uids.size());
}

// Fault plane: the liveness-masked resolver. Three properties, each per
// random pair: an empty plan (and any time before the first fault) gives
// exactly the eager route; mid-outage, whatever path comes back never
// crosses a link the plan reports down (and some routes demonstrably
// detour); once the last link is back up the masked choice converges to
// the eager route again (same salts, full candidate lists).
void fault_masked_differential(const char* name, const TopoGraph& topo,
                               std::uint64_t seed, int n_pairs) {
  const FaultPlan plan = FaultPlan::random_flaps(
      topo, 4, microseconds(10), microseconds(20), microseconds(10), seed);
  CHECK(!plan.empty());
  const FaultPlan none;
  // transitions() is sorted by time and every random flap comes back up,
  // so the last entry is the final link-up (applied at exactly its time).
  const Time after = plan.transitions().back().at;
  std::vector<Time> outages;  // a down applies at exactly its timestamp
  for (const FaultPlan::Transition& tr : plan.transitions()) {
    if (!tr.up) outages.push_back(tr.at);
  }
  CHECK(!outages.empty());
  Rng rng(seed * 77 + 1);
  const auto& hosts = topo.hosts();
  int checked = 0, detours = 0, severed = 0;
  while (checked < n_pairs) {
    const int src = hosts[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(hosts.size()) - 1))];
    const int dst = hosts[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(hosts.size()) - 1))];
    if (src == dst) continue;
    const FlowKey key{static_cast<std::uint32_t>(src),
                      static_cast<std::uint32_t>(dst),
                      static_cast<std::uint16_t>(rng.uniform_int(1, 65535)),
                      static_cast<std::uint16_t>(rng.uniform_int(1, 65535))};
    HopVec eager;
    topo.route_into(key, eager);
    HopVec masked;
    CHECK(topo.route_into(key, masked, none, outages[0]));
    CHECK(masked == eager);
    masked.clear();
    CHECK(topo.route_into(key, masked, plan, 0));
    CHECK(masked == eager);
    for (const Time t : outages) {
      masked.clear();
      if (!topo.route_into(key, masked, plan, t)) {
        ++severed;  // no surviving path: the NIC would park this flow
        continue;
      }
      CHECK(!masked.empty());
      for (const Hop& h : masked) {
        const PortInfo& p =
            topo.ports(h.node)[static_cast<std::size_t>(h.port)];
        CHECK(plan.link_up(h.node, p.peer, t));
      }
      // Detours are cached through the same packed-id scheme as clean
      // routes (check_route compresses whatever the masked resolver
      // picks), so the round-trip must hold for them too.
      HopVec expanded;
      topo.expand_path(key, topo.compress_path(key, masked), expanded);
      CHECK(expanded == masked);
      if (masked != eager) ++detours;
    }
    masked.clear();
    CHECK(topo.route_into(key, masked, plan, after));
    CHECK(masked == eager);
    ++checked;
  }
  CHECK(detours > 0);
  std::printf("fault mask differential ok: %s (%d pairs, %d detours, "
              "%d severed, seed %llu)\n",
              name, n_pairs, detours, severed,
              static_cast<unsigned long long>(seed));
}

}  // namespace

int main() {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    differential("t3_small", TopoGraph::three_tier(ThreeTierConfig::t3_small()),
                 seed, 400);
    differential("t3_1024", TopoGraph::three_tier(ThreeTierConfig::t3_1024()),
                 seed, 400);
  }
  differential("t3_16384", TopoGraph::three_tier(ThreeTierConfig::t3_16384()),
               5, 200);
  differential("t1_128", TopoGraph::fat_tree(FatTreeConfig::t1()), 11, 300);
  differential("t2_128", TopoGraph::fat_tree(FatTreeConfig::t2()), 11, 300);
  differential("cross_dc", TopoGraph::cross_dc(CrossDcConfig::paper()), 13,
               300);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    fault_masked_differential(
        "t3_small", TopoGraph::three_tier(ThreeTierConfig::t3_small()), seed,
        200);
    fault_masked_differential(
        "t3_1024", TopoGraph::three_tier(ThreeTierConfig::t3_1024()), seed,
        200);
  }
  fault_masked_differential("cross_dc", TopoGraph::cross_dc(CrossDcConfig::paper()),
                            13, 200);
  lazy_matches_eager_after_run();
  return 0;
}
