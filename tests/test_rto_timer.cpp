// The NIC retransmission timer (Nic::arm_rto). The lossless family's ~1 ms
// RTO re-arms on every ack, so a long flow re-arms it thousands of times
// per RTO interval; the wheel must still hold exactly one pending timer
// per flow. And the timer must still do its job: a dead access link
// starves senders of acks, the RTO fires, and the faulted run stays
// bit-identical at every shard count.
#include <cstdint>
#include <cstdlib>
#include <map>
#include <vector>

#include "core/fault.hpp"
#include "core/network.hpp"
#include "engine/sharded_sim.hpp"
#include "obs/metrics.hpp"

#include "test_util.hpp"

using namespace bfc;

namespace {

// One 8 MB BFC flow on an otherwise idle fabric: ~8000 acks inside the
// first RTO interval. Re-arming must not grow the pending-event set — the
// near-wheel high-water mark stays at the flow's in-flight packets and
// acks plus one timer, far below the ack count.
void one_pending_timer_per_flow() {
  setenv("BFC_METRICS", "1", 1);
  setenv("BFC_METRICS_EPOCH", "1000", 1);  // sample the wheel every 1 us
  FatTreeConfig ft;
  ft.n_tors = 2;
  ft.hosts_per_tor = 2;
  ft.n_spines = 1;
  const TopoGraph topo = TopoGraph::fat_tree(ft);
  ShardedSimulator sim(topo, 1);
  Network net(sim, topo, Scheme::kBfc);
  net.start_flow(FlowKey{0, 2, 1000, 80}, 8'000'000, 1, false);
  sim.run_until(milliseconds(3));
  unsetenv("BFC_METRICS");
  unsetenv("BFC_METRICS_EPOCH");

  CHECK(net.flow_stats().completed() == 1);
  const NicStats nt = net.nic_totals();
  CHECK(nt.pkts_sent >= 8000);
  CHECK(nt.rto_fires == 0);
  CHECK(sim.telemetry() != nullptr);
  const obs::ShardObs m = sim.telemetry()->merged();
  const std::uint64_t hw = m.gauges[obs::kWheelNear].hw;
  CHECK(hw > 0);
  CHECK(hw < 200);
  std::printf("one pending RTO per flow: %lld packets, wheel_near_hw=%llu\n",
              static_cast<long long>(nt.pkts_sent),
              static_cast<unsigned long long>(hw));
}

struct FaultedRun {
  NicStats nic;
  std::map<std::uint64_t, Time> ends;  // uid -> completion time
};

// Four senders into one destination whose access link dies at 20 us and
// returns at 2.5 ms: in-flight data is blackholed, no acks come back, and
// the senders' ~1 ms RTOs fire until data gets through again; then every
// flow completes.
FaultedRun run_dead_access_link(const TopoGraph& topo, int shards) {
  ShardedSimulator sim(topo, shards);
  Network net(sim, topo, Scheme::kBfc);
  const int dst = topo.hosts()[0];
  FaultPlan plan;
  plan.add_link_flap(dst, topo.ports(dst)[0].peer, microseconds(20),
                     microseconds(2500));
  net.install_faults(plan);
  const std::vector<int>& hosts = topo.hosts();
  for (std::uint64_t i = 0; i < 4; ++i) {
    const int src = hosts[hosts.size() - 1 - i];
    net.start_flow(FlowKey{static_cast<std::uint32_t>(src),
                           static_cast<std::uint32_t>(dst),
                           static_cast<std::uint16_t>(2000 + i), 80},
                   200'000, i + 1, false);
  }
  sim.run_until(milliseconds(8));
  FaultedRun r;
  r.nic = net.nic_totals();
  for (const auto& [uid, rec] : net.flow_stats().records()) {
    CHECK(rec.completed());
    r.ends[uid] = rec.end;
  }
  CHECK(r.ends.size() == 4);
  return r;
}

void real_timeouts_fire() {
  const TopoGraph topo = TopoGraph::three_tier(ThreeTierConfig::t3_small());
  const FaultedRun one = run_dead_access_link(topo, 1);
  CHECK(one.nic.rto_fires > 0);
  CHECK(one.nic.blackholed + one.nic.unreachable_parks > 0);
  for (int shards : {2, 4}) {
    const FaultedRun r = run_dead_access_link(topo, shards);
    CHECK(r.nic.rto_fires == one.nic.rto_fires);
    CHECK(r.nic.data_retx == one.nic.data_retx);
    CHECK(r.nic.pkts_sent == one.nic.pkts_sent);
    CHECK(r.nic.blackholed == one.nic.blackholed);
    CHECK(r.nic.unreachable_parks == one.nic.unreachable_parks);
    CHECK(r.nic.delivered_payload == one.nic.delivered_payload);
    CHECK(r.ends == one.ends);
  }
  std::printf("dead access link: rto_fires=%lld retx=%lld, identical at "
              "1/2/4 shards\n",
              static_cast<long long>(one.nic.rto_fires),
              static_cast<long long>(one.nic.data_retx));
}

}  // namespace

int main() {
  one_pending_timer_per_flow();
  real_timeouts_fire();
  return 0;
}
