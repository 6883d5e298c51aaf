/**
 * @file
 * Control-plane interference benchmark: how much datapath throughput a
 * host update stream costs, and what update latency the host observes.
 *
 * The router application runs under line-rate traffic while the host
 * pushes LPM route updates over the modeled PCIe mailbox at 0 / 1k / 10k
 * / 100k updates per second. Every mutating update quiesces the pipeline
 * (hold injection, drain in-flight packets, apply, release), so the
 * degradation column is the end-to-end price of the hazard-safe update
 * discipline — the paper's section-6 claim is that map updates from the
 * host are rare enough that this price is negligible, which the 0-update
 * row lets the reader check directly.
 *
 * Update latency is host-observed: submit-to-completion (channel up +
 * quiescence + apply + channel down), reported as p50/p90/p99 in shell
 * cycles and microseconds. Emits BENCH_ctl.json; EHDL_BENCH_QUICK=1
 * shrinks the workload for CI smoke runs.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "common/rng.hpp"
#include "ctl/controller.hpp"

namespace {

using namespace ehdl;

constexpr uint64_t kClockHz = 250'000'000;
constexpr double kCycleNs = 1e9 / static_cast<double>(kClockHz);

struct RateResult
{
    uint64_t updatesPerSec = 0;
    unsigned updatesApplied = 0;
    double mpps = 0.0;
    double degradationPct = 0.0;
    uint64_t p50 = 0, p90 = 0, p99 = 0;  ///< latency, shell cycles
};

uint64_t
percentile(std::vector<uint64_t> sorted, double p)
{
    if (sorted.empty())
        return 0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** A route-churn schedule: one LPM update every @p interval cycles. */
ctl::CtlSchedule
makeChurnSchedule(uint64_t interval, uint64_t end_cycle, Rng &rng)
{
    ctl::CtlSchedule sched;
    for (uint64_t cycle = interval; cycle <= end_cycle;
         cycle += interval) {
        ctl::CtlMapOp op;
        op.kind = ctl::CtlOpKind::MapUpdate;
        op.map = "routes";
        op.key.assign(8, 0);
        op.key[0] = static_cast<uint8_t>(16 + rng.below(17));  // /16../32
        op.key[4] = 10;
        op.key[5] = static_cast<uint8_t>(rng.below(256));
        op.key[6] = static_cast<uint8_t>(rng.below(256));
        op.value.assign(16, 0);
        op.value[0] = static_cast<uint8_t>(2 + rng.below(4));  // ifindex
        for (size_t i = 4; i < 16; ++i)
            op.value[i] = static_cast<uint8_t>(rng.next());
        ctl::CtlTxn txn;
        txn.cycle = cycle;
        txn.kind = ctl::CtlOpKind::MapUpdate;
        txn.ops.push_back(std::move(op));
        sched.txns.push_back(std::move(txn));
    }
    return sched;
}

RateResult
runRate(const apps::AppSpec &spec, const hdl::Pipeline &pipe,
        uint64_t updates_per_sec, int num_packets)
{
    ebpf::MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);

    sim::TrafficConfig tc;
    tc.numFlows = 64;
    tc.lineRateGbps = 100.0;
    tc.ipProto = spec.ipProto;
    tc.reverseFraction = spec.reverseFraction;
    tc.seed = 7;
    sim::TrafficGen gen(tc);

    sim::PipeSimConfig sc;
    sc.clockHz = kClockHz;
    sc.inputQueueCapacity = 1u << 20;
    sim::PipeSim sim(pipe, maps, sc);
    for (int i = 0; i < num_packets; ++i)
        sim.offer(gen.next());
    const uint64_t end_cycle =
        static_cast<uint64_t>(gen.nowNs() / kCycleNs) + 2000;

    ctl::CtlSchedule sched;
    Rng rng(updates_per_sec + 1);
    if (updates_per_sec > 0)
        sched = makeChurnSchedule(kClockHz / updates_per_sec, end_cycle,
                                  rng);

    ctl::CtlController ctrl(sim, maps);
    const ctl::CtlRunReport report = ctrl.run(sched);
    sim.drain();

    RateResult res;
    res.updatesPerSec = updates_per_sec;
    res.updatesApplied = static_cast<unsigned>(report.txns.size());
    res.mpps = sim.stats().throughputMpps(kClockHz);
    std::vector<uint64_t> lat;
    lat.reserve(report.txns.size());
    for (const ctl::CtlTxnRecord &rec : report.txns)
        lat.push_back(rec.completeCycle - rec.txn.cycle);
    std::sort(lat.begin(), lat.end());
    res.p50 = percentile(lat, 0.50);
    res.p90 = percentile(lat, 0.90);
    res.p99 = percentile(lat, 0.99);
    return res;
}

}  // namespace

int
main()
{
    // The full workload must span several 1k-updates/s periods (one per
    // millisecond = per 250k shell cycles) for the low-rate rows to carry
    // any updates at all; 64B frames at 100 Gbps arrive every ~6.7 ns, so
    // 500k packets last ~3.4 ms. Quick mode only proves the plumbing.
    const bool quick = std::getenv("EHDL_BENCH_QUICK") != nullptr;
    const int num_packets = quick ? 4000 : 500'000;

    const apps::AppSpec spec = apps::makeRouterIpv4();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);

    const uint64_t rates[] = {0, 1'000, 10'000, 100'000};
    std::vector<RateResult> results;
    for (const uint64_t rate : rates)
        results.push_back(runRate(spec, pipe, rate, num_packets));
    const double baseline = results[0].mpps;
    for (RateResult &r : results)
        r.degradationPct =
            baseline > 0.0 ? (baseline - r.mpps) / baseline * 100.0 : 0.0;

    std::printf("host update interference, router_ipv4, %d packets @ "
                "100 Gbps, 64 flows\n",
                num_packets);
    std::printf("%12s %8s %10s %8s %10s %10s %10s\n", "updates/s",
                "applied", "Mpps", "degr%", "p50(us)", "p90(us)",
                "p99(us)");
    const auto us = [](uint64_t cycles) {
        return static_cast<double>(cycles) * kCycleNs / 1000.0;
    };
    for (const RateResult &r : results)
        std::printf("%12llu %8u %10.3f %8.3f %10.2f %10.2f %10.2f\n",
                    static_cast<unsigned long long>(r.updatesPerSec),
                    r.updatesApplied, r.mpps, r.degradationPct, us(r.p50),
                    us(r.p90), us(r.p99));

    Json rows = Json::array();
    for (const RateResult &r : results) {
        Json row;
        row.set("updatesPerSec", Json::integer(r.updatesPerSec))
            .set("updatesApplied", Json::integer(r.updatesApplied))
            .set("mpps", Json::num(r.mpps))
            .set("degradationPct", Json::num(r.degradationPct))
            .set("latencyCyclesP50", Json::integer(r.p50))
            .set("latencyCyclesP90", Json::integer(r.p90))
            .set("latencyCyclesP99", Json::integer(r.p99))
            .set("latencyUsP50", Json::num(us(r.p50)))
            .set("latencyUsP90", Json::num(us(r.p90)))
            .set("latencyUsP99", Json::num(us(r.p99)));
        rows.push(std::move(row));
    }
    Json root;
    root.set("app", Json::str("router_ipv4"))
        .set("packets", Json::integer(static_cast<uint64_t>(num_packets)))
        .set("lineRateGbps", Json::num(100.0))
        .set("quick", Json::boolean(quick))
        .set("rates", std::move(rows));
    return bench::writeBenchJson("ctl", root) ? 0 : 1;
}
