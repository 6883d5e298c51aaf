/**
 * @file
 * Host DMA datapath benchmark: goodput saturation and ring behavior as
 * the host consumer slows below the offered XDP_PASS load.
 *
 * The firewall runs under line-rate traffic with half the flows tagged
 * host-destined (PASS-heavy) on a 4-replica RSS simulator, one host
 * queue per replica. A sweep over the host service rate then shows the
 * two regimes the model is built to expose: while the host keeps up,
 * goodput tracks the offered PASS load with near-empty rings and zero
 * drops; once the per-queue service rate falls below the per-queue PASS
 * arrival rate, goodput saturates at the host rate, ring occupancy pins
 * at the ring depth (p99 = depth) and the excess surfaces as shell drops
 * under the distinct backpressure counter.
 *
 * Emits BENCH_dma.json with one row per swept rate: offered/goodput
 * Mpps, drop share, interrupt moderation counters and per-queue posted
 * ring-occupancy p50/p99. EHDL_BENCH_QUICK=1 shrinks the workload for CI
 * smoke runs.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "host/host_dma.hpp"
#include "sim/multi_pipe_sim.hpp"

namespace {

using namespace ehdl;

constexpr uint64_t kClockHz = 250'000'000;
constexpr unsigned kQueues = 4;

struct RateRow
{
    double hostRateMpps = 0.0;   ///< per-queue service rate swept
    double offeredMpps = 0.0;    ///< PASS retirements / sim time
    double goodputMpps = 0.0;    ///< host-consumed / drain time
    uint64_t enqueued = 0;
    uint64_t consumed = 0;
    uint64_t shellDrops = 0;
    double dropPct = 0.0;
    uint64_t interrupts = 0;
    uint64_t countIrqs = 0;
    uint64_t timerIrqs = 0;
    std::vector<unsigned> occP50;  ///< per-queue posted-ring occupancy
    std::vector<unsigned> occP99;
};

RateRow
runRate(const apps::AppSpec &spec, const hdl::Pipeline &pipe,
        double host_rate_mpps, int num_packets)
{
    ebpf::MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);

    sim::TrafficConfig tc;
    tc.numFlows = 256;
    tc.lineRateGbps = 100.0;
    tc.ipProto = spec.ipProto;
    tc.hostFlowFraction = 0.5;  // PASS-heavy: tagged flows flip to TCP
    tc.seed = 9;
    sim::TrafficGen gen(tc);

    sim::MultiPipeSimConfig mc;
    mc.numReplicas = kQueues;
    mc.pipe.inputQueueCapacity = 1u << 20;
    sim::MultiPipeSim multi(pipe, maps, mc);

    host::HostDmaConfig hc;
    hc.numQueues = kQueues;
    hc.ringDepth = 256;
    hc.hostRateMpps = host_rate_mpps;
    hc.clockHz = kClockHz;
    host::HostDatapath host(hc);
    host.attach(multi);

    for (int i = 0; i < num_packets; ++i)
        multi.offer(gen.next());
    multi.drain();
    const uint64_t drain_cycle = host.finishAll();

    uint64_t sim_cycles = 0;
    for (unsigned r = 0; r < kQueues; ++r)
        sim_cycles = std::max(sim_cycles, multi.replica(r).stats().cycles);

    const host::HostQueueCounters t = host.totals();
    RateRow row;
    row.hostRateMpps = host_rate_mpps;
    const auto mpps = [](uint64_t count, uint64_t cycles) {
        return cycles == 0 ? 0.0
                           : static_cast<double>(count) *
                                 static_cast<double>(kClockHz) /
                                 static_cast<double>(cycles) / 1e6;
    };
    row.offeredMpps = mpps(t.enqueued, sim_cycles);
    row.goodputMpps = mpps(t.consumed, std::max(drain_cycle, sim_cycles));
    row.enqueued = t.enqueued;
    row.consumed = t.consumed;
    row.shellDrops = t.shellDrops;
    row.dropPct = t.enqueued == 0
                      ? 0.0
                      : static_cast<double>(t.shellDrops) /
                            static_cast<double>(t.enqueued) * 100.0;
    row.interrupts = t.interrupts;
    row.countIrqs = t.countTriggeredIrqs;
    row.timerIrqs = t.timerTriggeredIrqs;
    for (unsigned q = 0; q < kQueues; ++q) {
        row.occP50.push_back(host.queue(q).occupancyPercentile(0.50));
        row.occP99.push_back(host.queue(q).occupancyPercentile(0.99));
    }
    return row;
}

}  // namespace

int
main()
{
    // The sweep brackets the offered per-queue PASS load (~half the
    // line-rate 64B packet stream spread over 4 queues): the top rates
    // keep up, the bottom ones saturate. Quick mode proves the plumbing.
    const bool quick = std::getenv("EHDL_BENCH_QUICK") != nullptr;
    const int num_packets = quick ? 8000 : 200'000;

    const apps::AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);

    const double rates[] = {50.0, 20.0, 10.0, 5.0, 2.0, 1.0, 0.5};
    std::vector<RateRow> rows;
    for (const double rate : rates)
        rows.push_back(runRate(spec, pipe, rate, num_packets));

    std::printf("host DMA goodput sweep, firewall, %d packets @ 100 Gbps, "
                "hostFrac 0.5, %u queues, ring %u\n",
                num_packets, kQueues, 256u);
    std::printf("%12s %10s %10s %8s %10s %10s %8s %8s\n", "host Mpps",
                "offered", "goodput", "drop%", "irqs", "timer", "q0 p50",
                "q0 p99");
    for (const RateRow &r : rows)
        std::printf("%12.2f %10.3f %10.3f %8.2f %10llu %10llu %8u %8u\n",
                    r.hostRateMpps, r.offeredMpps, r.goodputMpps,
                    r.dropPct,
                    static_cast<unsigned long long>(r.interrupts),
                    static_cast<unsigned long long>(r.timerIrqs),
                    r.occP50[0], r.occP99[0]);

    Json series = Json::array();
    for (const RateRow &r : rows) {
        Json row;
        row.set("hostRateMpps", Json::num(r.hostRateMpps))
            .set("offeredPassMpps", Json::num(r.offeredMpps))
            .set("goodputMpps", Json::num(r.goodputMpps))
            .set("enqueued", Json::integer(r.enqueued))
            .set("consumed", Json::integer(r.consumed))
            .set("shellDrops", Json::integer(r.shellDrops))
            .set("dropPct", Json::num(r.dropPct))
            .set("interrupts", Json::integer(r.interrupts))
            .set("countTriggeredIrqs", Json::integer(r.countIrqs))
            .set("timerTriggeredIrqs", Json::integer(r.timerIrqs));
        Json p50 = Json::array();
        Json p99 = Json::array();
        for (unsigned q = 0; q < kQueues; ++q) {
            p50.push(Json::integer(r.occP50[q]));
            p99.push(Json::integer(r.occP99[q]));
        }
        row.set("ringOccupancyP50", std::move(p50))
            .set("ringOccupancyP99", std::move(p99));
        series.push(std::move(row));
    }
    Json root;
    root.set("app", Json::str("simple_firewall"))
        .set("packets", Json::integer(static_cast<uint64_t>(num_packets)))
        .set("queues", Json::integer(kQueues))
        .set("ringDepth", Json::integer(256))
        .set("hostFlowFraction", Json::num(0.5))
        .set("lineRateGbps", Json::num(100.0))
        .set("quick", Json::boolean(quick))
        .set("rates", std::move(series));
    return bench::writeBenchJson("dma", root) ? 0 : 1;
}
