/**
 * @file
 * Incremental cycle-core tests: the refactored per-cycle engine (hazard
 * summaries, batch-committed write arenas, copy-on-write checkpoints,
 * event-driven scheduling) is contracted to be bit-identical to the
 * dense reference behaviour. These tests exercise the contract across
 * uniform / Zipf / churn workloads and both simulation engines:
 *
 *  - paranoid mode cross-checks every hazard-summary skip against the
 *    full read scan (a summary false negative panics the run);
 *  - event-driven scheduling must reproduce dense-tick cycle accounting
 *    exactly (cycles, stalls, flushes, per-packet entry/exit cycles);
 *  - COW checkpoints must actually materialize on forced flush-replay,
 *    and the restored state must keep VM parity;
 *  - MultiPipeSim must aggregate the new counters across replicas, each
 *    of which drains on its own.
 */

#include <gtest/gtest.h>

#include <vector>

#include "apps/apps.hpp"
#include "ebpf/vm.hpp"
#include "hdl/compiler.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace ehdl::sim {
namespace {

using ebpf::MapSet;

/** A workload shape the cycle core must handle identically. */
struct Workload
{
    const char *name;
    double zipfS;
    uint64_t churnPeriod;
    /** Line rate; low rates open inter-arrival gaps so the event-driven
     *  scheduler actually has cycles to skip. */
    double lineRateGbps;
};

constexpr Workload kWorkloads[] = {
    {"uniform", 0.0, 0, 100.0},
    {"zipf", 1.2, 0, 100.0},
    {"churn", 0.0, 500, 100.0},
    {"uniform-sparse", 0.0, 0, 2.0},
    {"zipf-sparse", 1.2, 0, 0.5},
};

std::vector<net::Packet>
makePackets(const apps::AppSpec &spec, const Workload &w, int count,
            uint64_t num_flows = 64)
{
    TrafficConfig traffic;
    traffic.numFlows = num_flows;  // small: collision-heavy
    traffic.packetLen = 64;
    traffic.zipfS = w.zipfS;
    traffic.churnPeriod = w.churnPeriod;
    traffic.lineRateGbps = w.lineRateGbps;
    traffic.reverseFraction = spec.reverseFraction;
    traffic.ipProto = spec.ipProto;
    TrafficGen gen(traffic);
    std::vector<net::Packet> packets;
    packets.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i)
        packets.push_back(gen.next());
    return packets;
}

struct RunResult
{
    PipeSimStats stats;
    std::vector<PacketOutcome> outcomes;
    MapSet maps;
};

RunResult
runOnce(const apps::AppSpec &spec, const hdl::Pipeline &pipe,
        const std::vector<net::Packet> &packets, PipeSimConfig config)
{
    RunResult out;
    out.maps = MapSet(spec.prog.maps);
    spec.seedMaps(out.maps);
    config.inputQueueCapacity = 1u << 18;
    OutcomeLog log;
    PipeSim sim(pipe, out.maps, config);
    sim.attachRetireSink(&log);
    for (const net::Packet &pkt : packets)
        sim.offer(pkt);
    sim.drain();
    out.stats = sim.stats();
    out.outcomes = std::move(log.outcomes);
    return out;
}

/** The pre-refactor stats vocabulary — every field the bit-identical
 *  contract covers. The new instrumentation counters (hazard/commit/
 *  checkpoint/event) are diagnostics and intentionally excluded. */
void
expectSameAccounting(const PipeSimStats &a, const PipeSimStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.flushEvents, b.flushEvents);
    EXPECT_EQ(a.flushedPackets, b.flushedPackets);
    EXPECT_EQ(a.replayedStages, b.replayedStages);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
}

void
expectSameOutcomes(const std::vector<PacketOutcome> &a,
                   const std::vector<PacketOutcome> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << "outcome " << i;
        EXPECT_EQ(a[i].action, b[i].action) << "outcome " << i;
        EXPECT_EQ(a[i].redirectIfindex, b[i].redirectIfindex);
        EXPECT_EQ(a[i].trapped, b[i].trapped);
        EXPECT_EQ(a[i].entryCycle, b[i].entryCycle) << "outcome " << i;
        EXPECT_EQ(a[i].exitCycle, b[i].exitCycle) << "outcome " << i;
        EXPECT_EQ(a[i].bytes, b[i].bytes) << "outcome " << i;
    }
}

std::vector<apps::AppSpec>
hazardApps()
{
    // Apps whose map write-back traffic forces flush-replay under
    // collision-heavy flows: conntrack-style firewall and DNAT, plus
    // the elastic-demo pipeline whose restarts go through the COW
    // checkpoint chain instead of a full stage-0 replay.
    std::vector<apps::AppSpec> specs;
    specs.push_back(apps::makeSimpleFirewall());
    specs.push_back(apps::makeDnat());
    specs.push_back(apps::makeElasticDemo());
    return specs;
}

TEST(CycleCore, ParanoidModeCrossChecksHazardSummaries)
{
    // Flush-heavy workloads under paranoid mode: every summary-gated
    // hazard decision is re-derived with the full read scan and a
    // mismatch panics. Surviving the run is the assertion.
    for (apps::AppSpec &spec : hazardApps()) {
        spec.reverseFraction = 0.5;  // bidirectional flows collide more
        const hdl::Pipeline pipe = hdl::compile(spec.prog);
        const std::vector<net::Packet> packets =
            makePackets(spec, kWorkloads[2], 4000, 16);
        for (const SimEngine engine :
             {SimEngine::Interp, SimEngine::Aot}) {
            PipeSimConfig config;
            config.engine = engine;
            config.paranoidChecks = true;
            const RunResult r = runOnce(spec, pipe, packets, config);
            EXPECT_GT(r.stats.flushEvents, 0u)
                << "workload failed to force flush-replay";
            EXPECT_GT(r.stats.hazardChecks, 0u);
        }
    }
}

TEST(CycleCore, EventDrivenMatchesDenseTickAccounting)
{
    for (apps::AppSpec &spec : hazardApps()) {
        spec.reverseFraction = 0.25;
        const hdl::Pipeline pipe = hdl::compile(spec.prog);
        for (const Workload &w : kWorkloads) {
            const std::vector<net::Packet> packets =
                makePackets(spec, w, 2500, 32);
            for (const SimEngine engine :
                 {SimEngine::Interp, SimEngine::Aot}) {
                PipeSimConfig dense;
                dense.engine = engine;
                PipeSimConfig event = dense;
                event.schedMode = SchedMode::EventDriven;
                const RunResult d = runOnce(spec, pipe, packets, dense);
                const RunResult e = runOnce(spec, pipe, packets, event);
                SCOPED_TRACE(std::string(w.name) + " engine=" +
                             (engine == SimEngine::Interp ? "interp"
                                                          : "aot"));
                expectSameAccounting(d.stats, e.stats);
                expectSameOutcomes(d.outcomes, e.outcomes);
                EXPECT_TRUE(MapSet::equal(d.maps, e.maps));
                // Dense mode must never take the event path.
                EXPECT_EQ(d.stats.eventJumps, 0u);
            }
        }
    }
}

TEST(CycleCore, EventDrivenSkipsCyclesOnSparseArrivals)
{
    // At 0.5 Gb/s a 64B frame arrives every ~1.3 us while the pipeline
    // clocks at 4 ns — the event scheduler must be jumping, not ticking.
    apps::AppSpec spec = apps::makeRouterIpv4();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const std::vector<net::Packet> packets =
        makePackets(spec, kWorkloads[4], 1500, 64);
    PipeSimConfig config;
    config.schedMode = SchedMode::EventDriven;
    const RunResult r = runOnce(spec, pipe, packets, config);
    EXPECT_GT(r.stats.eventJumps, 0u);
    EXPECT_GT(r.stats.eventSkippedCycles, 0u);
    // Skipped cycles are still accounted: total cycles include them.
    EXPECT_GE(r.stats.cycles, r.stats.eventSkippedCycles);
}

TEST(CycleCore, CowCheckpointsMaterializeOnFlushReplay)
{
    // The elastic-demo app restarts flushed flights from its elastic
    // buffer rather than stage 0; the restart restores from the COW
    // checkpoint chain, so with two colliding flows materializations
    // must be observed — and the restored state must stay VM-exact.
    apps::AppSpec spec = apps::makeElasticDemo();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    ASSERT_FALSE(pipe.elasticBuffers.empty());
    const std::vector<net::Packet> packets =
        makePackets(spec, kWorkloads[0], 2000, 2);

    PipeSimConfig config;
    config.paranoidChecks = true;
    const RunResult r = runOnce(spec, pipe, packets, config);
    EXPECT_GT(r.stats.flushEvents, 0u);
    EXPECT_GT(r.stats.checkpointsTaken, 0u);
    EXPECT_GT(r.stats.checkpointsMaterialized, 0u);

    // VM parity: the same packet sequence through the reference VM must
    // agree on every action and on final map contents.
    MapSet vm_maps(spec.prog.maps);
    spec.seedMaps(vm_maps);
    ebpf::Vm vm(spec.prog, vm_maps);
    ASSERT_EQ(r.outcomes.size(), packets.size());
    for (size_t i = 0; i < packets.size(); ++i) {
        net::Packet copy = packets[i];
        const ebpf::ExecResult res = vm.run(copy);
        EXPECT_EQ(r.outcomes[i].action, res.action) << "packet " << i;
        EXPECT_EQ(r.outcomes[i].bytes, copy.bytes()) << "packet " << i;
    }
    EXPECT_TRUE(MapSet::equal(r.maps, vm_maps));
}

TEST(CycleCore, MultiPipeSimAggregatesEventCounters)
{
    apps::AppSpec spec = apps::makeRouterIpv4();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const std::vector<net::Packet> packets =
        makePackets(spec, kWorkloads[3], 2000, 64);

    const auto run = [&](SchedMode mode) {
        MapSet maps(spec.prog.maps);
        spec.seedMaps(maps);
        MultiPipeSimConfig mc;
        mc.numReplicas = 4;
        mc.pipe.inputQueueCapacity = 1u << 18;
        mc.pipe.schedMode = mode;
        MultiPipeSim sim(pipe, maps, mc);
        for (const net::Packet &pkt : packets)
            sim.offer(pkt);
        sim.drain();
        return sim.stats();
    };
    const PipeSimStats dense = run(SchedMode::Dense);
    const PipeSimStats event = run(SchedMode::EventDriven);
    // Aggregated accounting matches dense run for dense-contract fields.
    EXPECT_EQ(dense.offered, event.offered);
    EXPECT_EQ(dense.accepted, event.accepted);
    EXPECT_EQ(dense.completed, event.completed);
    EXPECT_EQ(dense.cycles, event.cycles);
    EXPECT_EQ(dense.flushEvents, event.flushEvents);
    EXPECT_EQ(dense.stallCycles, event.stallCycles);
    // The event run's replica counters aggregate into the summary.
    EXPECT_GT(event.eventJumps, 0u);
    EXPECT_EQ(dense.eventJumps, 0u);
}

}  // namespace
}  // namespace ehdl::sim
