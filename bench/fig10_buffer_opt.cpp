// Fig. 10: physical-queue buffering vs number of concurrent long-lived flows
// to one receiver. The Section 3.5 resume limiter (2 resumes per RTT per
// queue) caps per-queue occupancy at ~2 hop-BDPs; without it
// (BFC-BufferOpt), occupancy grows linearly with the flow count.
//
// Every (scheme, flow-count) point is an isolated single-shard run, so
// the points fan out over run_points worker threads; output and the
// recorded "fig10" JSON section are assembled from the positional results
// afterward, so both are byte-identical to a serial run.
#include "bench_json.hpp"
#include "bench_util.hpp"
#include "stats/samplers.hpp"

using namespace bfc;

namespace {

struct PointResult {
  double p99_kb = 0;
  std::int64_t pauses = 0;
  std::int64_t resumes = 0;
  std::int64_t pfc = 0;
  std::int64_t rto = 0;
  std::int64_t retx = 0;
};

PointResult run_one(Scheme scheme, int n_flows, Time stop) {
  const TopoGraph topo = TopoGraph::fat_tree(FatTreeConfig::t2());
  ShardedSimulator sim(topo, 1);
  // The figure isolates BFC's own buffering behavior: a deep shared
  // buffer keeps the PFC backstop (whose per-ingress quota would cap both
  // schemes identically) and drops out of the picture.
  NetworkOverrides ov;
  ov.buffer_bytes = std::int64_t{1} << 30;
  Network net(sim, topo, scheme, ov);

  // Single-switch incast, the paper's Fig. 10 scenario: every sender sits
  // on the receiver's own ToR, so a resumed flow's NIC can refill the
  // queue at full line rate within one pause-feedback RTT. (Senders behind
  // the fabric would be throttled to their fair share of the spine's
  // backlogged egress, which hides exactly the inrush the resume limiter
  // exists to cap.)
  const int dst = topo.hosts()[0];
  const int dst_tor = topo.ports(dst)[0].peer;
  std::vector<int> senders;
  for (int h : topo.hosts()) {
    if (h != dst && topo.ports(h)[0].peer == dst_tor) senders.push_back(h);
  }
  const std::uint64_t bytes = static_cast<std::uint64_t>(
      Rate::gbps(100).bytes_per_sec() * to_sec(stop) * 2);
  for (int i = 0; i < n_flows; ++i) {
    const int src = senders[static_cast<std::size_t>(i) % senders.size()];
    FlowKey key{static_cast<std::uint32_t>(src),
                static_cast<std::uint32_t>(dst),
                static_cast<std::uint16_t>(1000 + i), 80};
    net.start_flow(key, bytes, static_cast<std::uint64_t>(i + 1),
                   /*incast=*/true);
  }

  // Sample every occupied physical queue at the receiver's ToR egress
  // toward the receiver.
  const int tor = topo.ports(dst)[0].peer;
  Switch* tor_sw = nullptr;
  for (auto* sw : net.switches()) {
    if (sw->id() == tor) tor_sw = sw;
  }
  int host_port = -1;
  const auto& pl = topo.ports(tor);
  for (std::size_t p = 0; p < pl.size(); ++p) {
    if (pl[p].peer == dst) host_port = static_cast<int>(p);
  }
  // Long warm-up: the synchronized start floods the fabric; steady state
  // (the regime the paper plots) takes the initial pile-up's drain time
  // to establish, which grows with the flow count (the caller scales
  // `stop` accordingly).
  VectorSampler qsamples(
      sim, microseconds(5), stop / 2,
      [tor_sw, host_port](std::vector<double>& out) {
        for (int q = 0; q < tor_sw->num_data_queues(); ++q) {
          const auto b = tor_sw->data_queue_bytes(host_port, q);
          if (b > 0) out.push_back(static_cast<double>(b) / 1e3);  // KB
        }
      });
  sim.run_until(stop);
  PointResult r;
  for (const auto* n : net.nics()) {
    r.rto += n->stats().rto_fires;
    r.retx += n->stats().data_retx;
  }
  r.pauses = net.bfc_totals().pauses;
  r.resumes = net.bfc_totals().resumes;
  r.pfc = net.switch_totals().pfc_pauses_sent;
  r.p99_kb = percentile(qsamples.samples(), 99);
  return r;
}

}  // namespace

int main() {
  bench::header("Fig. 10", "p99 physical-queue size vs concurrent flows",
                "BFC flat at ~2 hop-BDPs (~75 KB); BFC-BufferOpt (resume "
                "limiter disabled) grows linearly with the flow count");
  const Time stop = static_cast<Time>(microseconds(2500) *
                                      bfc::bench_scale());
  // Reference: one hop-BDP at (HRTT + tau) = 3 us and 100 Gbps is 37.5 KB.
  std::printf("2-hop BDP reference: %.1f KB\n\n", 2 * 37.5);

  struct Point {
    Scheme scheme;
    int flows;
    Time stop_n;
  };
  std::vector<Point> points;
  for (int flows : {8, 16, 32, 64, 128, 256}) {
    // The synchronized-start pile-up drains at ~1/n_queues of the port
    // rate, so the time to reach the steady state the paper plots grows
    // with the flow count; stretch the run to keep the sampling window
    // (second half) clear of the transient.
    const Time stop_n = stop * std::max(1, flows / 32);
    points.push_back({Scheme::kBfc, flows, stop_n});
    points.push_back({Scheme::kBfcNoResumeLimit, flows, stop_n});
  }

  std::vector<PointResult> results(points.size());
  run_points(points.size(), [&](std::size_t i) {
    results[i] =
        run_one(points[i].scheme, points[i].flows, points[i].stop_n);
  });

  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& r = results[i];
    std::printf(
        "  [%s n=%d] pauses=%lld resumes=%lld pfc=%lld rto=%lld retx=%lld\n",
        scheme_name(points[i].scheme), points[i].flows,
        static_cast<long long>(r.pauses), static_cast<long long>(r.resumes),
        static_cast<long long>(r.pfc), static_cast<long long>(r.rto),
        static_cast<long long>(r.retx));
  }
  std::printf("\n%-10s %16s %22s\n", "flows", "BFC p99 q (KB)",
              "BFC-BufferOpt p99 q (KB)");
  for (std::size_t i = 0; i + 1 < points.size(); i += 2) {
    std::printf("%-10d %16.1f %22.1f\n", points[i].flows, results[i].p99_kb,
                results[i + 1].p99_kb);
  }

  // Machine-readable rows ("fig10" section): every field is a pure
  // function of the simulation.
  {
    std::ostringstream body;
    body.precision(3);
    body << std::fixed;
    body << "{\n    \"scale\": " << bench_scale() << ",\n    \"rows\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const PointResult& r = results[i];
      body << "      {\"scheme\": \"" << scheme_name(points[i].scheme)
           << "\", \"flows\": " << points[i].flows
           << ", \"p99_kb\": " << r.p99_kb
           << ", \"pauses\": " << r.pauses
           << ", \"resumes\": " << r.resumes
           << ", \"pfc\": " << r.pfc
           << ", \"rto\": " << r.rto
           << ", \"retx\": " << r.retx << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    body << "    ]\n  }";
    bench::update_bench_json("fig10", body.str());
  }
  return 0;
}
