/**
 * @file
 * Pipeline-simulator tests: timing (one packet per cycle, stage-count
 * latency), predication, input-queue losses, flush accounting and replay
 * correctness, WAR forwarding, and elastic-buffer restarts.
 */

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "common/bitops.hpp"
#include "common/logging.hpp"
#include "ebpf/asm.hpp"
#include "ebpf/vm.hpp"
#include "hdl/compiler.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace ehdl::sim {
namespace {

using ebpf::MapSet;
using ebpf::XdpAction;

net::Packet
defaultPacket(uint64_t id, uint64_t arrival_ns = 0)
{
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    pkt.id = id;
    pkt.arrivalNs = arrival_ns;
    return pkt;
}

PipeSimConfig
bigQueue()
{
    PipeSimConfig config;
    config.inputQueueCapacity = 1u << 20;
    return config;
}

TEST(PipeSim, SinglePacketLatencyEqualsStages)
{
    const hdl::Pipeline pipe = hdl::compile(apps::makeToyCounter().prog);
    MapSet maps(pipe.prog.maps);
    OutcomeLog log;
    PipeSim sim(pipe, maps, bigQueue());
    sim.attachRetireSink(&log);
    ASSERT_TRUE(sim.offer(defaultPacket(1)));
    sim.drain();
    ASSERT_EQ(log.outcomes.size(), 1u);
    const PacketOutcome &out = log.outcomes[0];
    EXPECT_EQ(out.action, XdpAction::Tx);
    // Latency = number of stages (one cycle each).
    EXPECT_EQ(out.exitCycle - out.entryCycle, pipe.numStages());
    EXPECT_NEAR(sim.avgLatencyNs(),
                4.0 * (pipe.numStages() + 1), 0.5);
}

TEST(PipeSim, BackToBackPacketsOnePerCycle)
{
    const hdl::Pipeline pipe = hdl::compile(apps::makeToyCounter().prog);
    MapSet maps(pipe.prog.maps);
    PipeSim sim(pipe, maps, bigQueue());
    const int n = 200;
    for (int i = 1; i <= n; ++i)
        ASSERT_TRUE(sim.offer(defaultPacket(i, 0)));
    sim.drain();
    ASSERT_EQ(sim.stats().completed, static_cast<uint64_t>(n));
    // n packets through an S-stage pipeline: ~n + S cycles.
    EXPECT_LE(sim.stats().cycles, n + pipe.numStages() + 8);
    // Throughput approaches one packet per cycle (250 Mpps at 250 MHz).
    EXPECT_GT(sim.stats().throughputMpps(250000000), 180.0);
}

TEST(PipeSim, RetirementOrderPreservesArrivalOrder)
{
    const hdl::Pipeline pipe = hdl::compile(apps::makeLeakyBucket().prog);
    MapSet maps(pipe.prog.maps);
    OutcomeLog log;
    PipeSim sim(pipe, maps, bigQueue());
    sim.attachRetireSink(&log);
    TrafficConfig tc;
    tc.numFlows = 3;  // heavy collisions -> many flushes
    TrafficGen gen(tc);
    for (int i = 0; i < 300; ++i)
        sim.offer(gen.next());
    sim.drain();
    ASSERT_EQ(log.outcomes.size(), 300u);
    // Flush replay must never let a younger packet overtake an older one.
    for (size_t i = 1; i < log.outcomes.size(); ++i)
        EXPECT_LT(log.outcomes[i - 1].id, log.outcomes[i].id);
    EXPECT_GT(sim.stats().flushEvents, 0u);
}

TEST(PipeSim, AvgLatencyMatchesOutcomeLogMean)
{
    // The streaming latency sum must agree with the mean over a recorded
    // stream, under every engine and sched mode, on a flush-heavy run.
    const hdl::Pipeline pipe = hdl::compile(apps::makeLeakyBucket().prog);
    for (const SimEngine engine : {SimEngine::Interp, SimEngine::Aot}) {
        for (const SchedMode mode :
             {SchedMode::Dense, SchedMode::EventDriven}) {
            MapSet maps(pipe.prog.maps);
            PipeSimConfig config = bigQueue();
            config.engine = engine;
            config.schedMode = mode;
            OutcomeLog log;
            PipeSim sim(pipe, maps, config);
            sim.attachRetireSink(&log);
            TrafficConfig tc;
            tc.numFlows = 3;
            TrafficGen gen(tc);
            for (int i = 0; i < 300; ++i)
                sim.offer(gen.next());
            sim.drain();
            ASSERT_EQ(log.outcomes.size(), 300u);
            ASSERT_GT(sim.stats().flushEvents, 0u);
            double total_ns = 0;
            for (const PacketOutcome &out : log.outcomes)
                total_ns += static_cast<double>(out.exitCycle -
                                                out.entryCycle + 1) *
                            4.0;
            EXPECT_DOUBLE_EQ(sim.avgLatencyNs(),
                             total_ns /
                                 static_cast<double>(log.outcomes.size()))
                << "engine " << static_cast<int>(engine) << " sched "
                << static_cast<int>(mode);
        }
    }
}

TEST(PipeSim, InputQueueOverflowCountsLosses)
{
    const hdl::Pipeline pipe = hdl::compile(apps::makeToyCounter().prog);
    MapSet maps(pipe.prog.maps);
    PipeSimConfig config;
    config.inputQueueCapacity = 8;
    PipeSim sim(pipe, maps, config);
    int accepted = 0;
    for (int i = 1; i <= 20; ++i)
        accepted += sim.offer(defaultPacket(i)) ? 1 : 0;
    EXPECT_EQ(accepted, 8);
    EXPECT_EQ(sim.stats().lost, 12u);
    sim.drain();
    EXPECT_EQ(sim.stats().completed, 8u);
}

TEST(PipeSim, ThroughputIsZeroBeforeAnyCycle)
{
    // Guard the cycles==0 division edge in PipeSimStats::throughputMpps.
    PipeSimStats empty;
    EXPECT_EQ(empty.throughputMpps(250'000'000), 0.0);

    const hdl::Pipeline pipe = hdl::compile(apps::makeToyCounter().prog);
    MapSet maps(pipe.prog.maps);
    PipeSim sim(pipe, maps, bigQueue());
    sim.offer(defaultPacket(1));  // queued, but no cycle has run yet
    EXPECT_EQ(sim.stats().cycles, 0u);
    EXPECT_EQ(sim.stats().throughputMpps(250'000'000), 0.0);
    sim.drain();
    EXPECT_GT(sim.stats().throughputMpps(250'000'000), 0.0);
}

TEST(PipeSim, QueueAcceptsExactlyCapacityBeforeLosing)
{
    const hdl::Pipeline pipe = hdl::compile(apps::makeToyCounter().prog);
    MapSet maps(pipe.prog.maps);
    PipeSimConfig config;
    config.inputQueueCapacity = 8;
    PipeSim sim(pipe, maps, config);
    // Offers 1..capacity all fit; the boundary packet must not be lost.
    for (unsigned i = 1; i <= 8; ++i) {
        EXPECT_TRUE(sim.offer(defaultPacket(i))) << "offer " << i;
        EXPECT_EQ(sim.stats().lost, 0u) << "offer " << i;
    }
    // The first past-capacity offer is the first loss.
    EXPECT_FALSE(sim.offer(defaultPacket(9)));
    EXPECT_EQ(sim.stats().lost, 1u);
    EXPECT_EQ(sim.stats().offered, 9u);
    EXPECT_EQ(sim.stats().accepted, 8u);
    sim.drain();
    EXPECT_EQ(sim.stats().completed, 8u);
}

TEST(PipeSim, ArrivalTimesGateInjection)
{
    const hdl::Pipeline pipe = hdl::compile(apps::makeToyCounter().prog);
    MapSet maps(pipe.prog.maps);
    OutcomeLog log;
    PipeSim sim(pipe, maps, bigQueue());
    sim.attachRetireSink(&log);
    // Second packet arrives 400 ns (100 cycles) after the first.
    sim.offer(defaultPacket(1, 0));
    sim.offer(defaultPacket(2, 400));
    sim.drain();
    ASSERT_EQ(log.outcomes.size(), 2u);
    EXPECT_GE(log.outcomes[1].entryCycle, 100u);
}

TEST(PipeSim, PredicationMatchesControlFlow)
{
    // Non-IPv4 packets take the early-exit path.
    const hdl::Pipeline pipe =
        hdl::compile(apps::makeSimpleFirewall().prog);
    MapSet maps(pipe.prog.maps);
    OutcomeLog log;
    PipeSim sim(pipe, maps, bigQueue());
    sim.attachRetireSink(&log);
    net::PacketSpec arp;
    arp.etherType = net::kEthPArp;
    net::Packet pkt = net::PacketFactory::build(arp);
    pkt.id = 1;
    sim.offer(pkt);
    sim.drain();
    EXPECT_EQ(log.outcomes[0].action, XdpAction::Pass);
}

TEST(PipeSim, FlushEventsCountedAndResolved)
{
    const hdl::Pipeline pipe = hdl::compile(apps::makeLeakyBucket().prog);
    MapSet maps(pipe.prog.maps);
    PipeSim sim(pipe, maps, bigQueue());
    // Same flow back to back: every packet collides with its predecessor.
    TrafficConfig tc;
    tc.numFlows = 1;
    TrafficGen gen(tc);
    for (int i = 0; i < 50; ++i)
        sim.offer(gen.next());
    sim.drain();
    EXPECT_EQ(sim.stats().completed, 50u);
    EXPECT_GE(sim.stats().flushEvents, 40u);
    EXPECT_GT(sim.stats().flushedPackets, 0u);
    EXPECT_GT(sim.stats().replayedStages, 0u);
    // Single-flow adversarial load costs real throughput (section 5.3).
    EXPECT_LT(sim.stats().throughputMpps(250000000), 100.0);
}

TEST(PipeSim, WarForwardingReadsOwnWrite)
{
    // Write then read the same value field: the parked write must forward.
    ebpf::Program prog = ebpf::assemble(R"(
        .map m hash 4 8 16
        r6 = *(u32 *)(r1 + 0)
        r3 = *(u32 *)(r6 + 26)
        *(u32 *)(r10 - 4) = r3
        r1 = map[m]
        r2 = r10
        r2 += -4
        call 1
        if r0 == 0 goto out
        r3 = 41
        r3 += 1
        *(u64 *)(r0 + 0) = r3
        r4 = *(u64 *)(r0 + 0)
        if r4 != 42 goto bad
        out:
        r0 = 2
        exit
        bad:
        r0 = 1
        exit
    )");
    const hdl::Pipeline pipe = hdl::compile(prog);
    ASSERT_GE(pipe.warBuffers.size(), 1u);
    MapSet maps(pipe.prog.maps);
    // Pre-create the entry so the hit path runs.
    ebpf::Vm vm(prog, maps);
    net::Packet seed = defaultPacket(1);
    vm.run(seed);  // miss -> exits via "out", creates nothing
    std::vector<uint8_t> key(4, 0);
    net::PacketSpec spec;
    net::Packet probe = net::PacketFactory::build(spec);
    storeLe<uint32_t>(key.data(),
                      loadLe<uint32_t>(probe.data() + 26));
    maps.at(0).hostUpdate(key, std::vector<uint8_t>(8, 0));

    OutcomeLog log;
    PipeSim sim(pipe, maps, bigQueue());
    sim.attachRetireSink(&log);
    sim.offer(defaultPacket(2));
    sim.drain();
    EXPECT_EQ(log.outcomes[0].action, XdpAction::Pass);
}

TEST(PipeSim, ElasticBufferAvoidsAtomicReplay)
{
    const hdl::Pipeline pipe = hdl::compile(apps::makeElasticDemo().prog);
    ASSERT_EQ(pipe.elasticBuffers.size(), 1u);
    MapSet maps(pipe.prog.maps);
    PipeSim sim(pipe, maps, bigQueue());
    TrafficConfig tc;
    tc.numFlows = 2;
    TrafficGen gen(tc);
    const int n = 400;
    for (int i = 0; i < n; ++i)
        sim.offer(gen.next());
    sim.drain();
    EXPECT_GT(sim.stats().flushEvents, 0u);
    // The atomic global counter must equal the packet count exactly: a
    // replayed atomic would overshoot.
    std::vector<uint8_t> key(4, 0);
    auto value = maps.byName("gstats")->hostLookup(key);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(loadLe<uint64_t>(value->data()), static_cast<uint64_t>(n));
}

TEST(PipeSim, TrappingPacketAborts)
{
    // Undersized frame: the bounds check fails in hardware -> abort.
    ebpf::Program prog = ebpf::assemble(R"(
        r6 = *(u32 *)(r1 + 0)
        r0 = *(u8 *)(r6 + 60)
        r0 = 2
        exit
    )");
    const hdl::Pipeline pipe = hdl::compile(prog);
    MapSet maps(pipe.prog.maps);
    OutcomeLog log;
    PipeSim sim(pipe, maps, bigQueue());
    sim.attachRetireSink(&log);
    net::Packet tiny(std::vector<uint8_t>(20, 0));
    tiny.id = 1;
    sim.offer(tiny);
    sim.drain();
    EXPECT_EQ(log.outcomes[0].action, XdpAction::Aborted);
    EXPECT_TRUE(log.outcomes[0].trapped);
}

TEST(PipeSim, StepByStepMatchesDrain)
{
    const hdl::Pipeline pipe = hdl::compile(apps::makeToyCounter().prog);
    MapSet maps(pipe.prog.maps);
    OutcomeLog log;
    PipeSim sim(pipe, maps, bigQueue());
    sim.attachRetireSink(&log);
    sim.offer(defaultPacket(1));
    for (int i = 0; i < 200 && log.outcomes.empty(); ++i)
        sim.step();
    ASSERT_EQ(log.outcomes.size(), 1u);
    EXPECT_EQ(log.outcomes[0].action, XdpAction::Tx);
}

TEST(PipeSim, RejectsEmptyPipeline)
{
    hdl::Pipeline pipe;
    MapSet maps;
    EXPECT_THROW(PipeSim(pipe, maps), FatalError);
}

TEST(PipeSim, ReloadPenaltyStallsInput)
{
    const hdl::Pipeline pipe = hdl::compile(apps::makeLeakyBucket().prog);
    MapSet maps(pipe.prog.maps);
    PipeSim sim(pipe, maps, bigQueue());
    TrafficConfig tc;
    tc.numFlows = 1;
    TrafficGen gen(tc);
    for (int i = 0; i < 30; ++i)
        sim.offer(gen.next());
    sim.drain();
    EXPECT_GT(sim.stats().stallCycles, 0u);
}

TEST(PipeSim, IdleGapsFastForwardWithExactCycleAccounting)
{
    // Sparse arrivals: the simulator may skip idle cycles internally, but
    // the cycle counter must still advance as if every cycle ran. With a
    // 1 Mpps arrival process (1000 ns = 250 cycles apart at 250 MHz) the
    // final cycle count is dominated by the last arrival's timestamp.
    const hdl::Pipeline pipe = hdl::compile(apps::makeToyCounter().prog);
    MapSet maps(pipe.prog.maps);
    OutcomeLog log;
    PipeSim sim(pipe, maps, bigQueue());
    sim.attachRetireSink(&log);
    const int n = 100;
    for (int i = 0; i < n; ++i)
        ASSERT_TRUE(sim.offer(defaultPacket(i + 1, i * 1000ULL)));
    sim.drain();
    ASSERT_EQ(log.outcomes.size(), static_cast<size_t>(n));
    // Each packet enters no earlier than its arrival time allows...
    for (int i = 0; i < n; ++i)
        EXPECT_GE(log.outcomes[i].entryCycle, i * 250u);
    // ...and the run ends within one pipeline depth of the last arrival.
    EXPECT_GE(sim.stats().cycles, (n - 1) * 250u);
    EXPECT_LE(sim.stats().cycles, (n - 1) * 250u + pipe.numStages() + 8);
    EXPECT_EQ(sim.stats().completed, static_cast<uint64_t>(n));
}

TEST(PipeSim, ReusedSimulatorMatchesFreshAcrossDrains)
{
    // Offer/drain in bursts reuses pooled in-flight state; results must
    // be identical to a fresh simulator fed the same packets in one go.
    const apps::AppSpec spec = apps::makeLeakyBucket();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    TrafficConfig tc;
    tc.numFlows = 4;
    tc.seed = 5;
    TrafficGen gen(tc);
    std::vector<net::Packet> packets;
    for (int i = 0; i < 600; ++i)
        packets.push_back(gen.next());

    MapSet burst_maps(spec.prog.maps);
    spec.seedMaps(burst_maps);
    OutcomeLog burst_log;
    PipeSim burst(pipe, burst_maps, bigQueue());
    burst.attachRetireSink(&burst_log);
    for (size_t i = 0; i < packets.size(); ++i) {
        ASSERT_TRUE(burst.offer(packets[i]));
        if (i % 50 == 49)
            burst.drain();
    }
    burst.drain();

    MapSet once_maps(spec.prog.maps);
    spec.seedMaps(once_maps);
    OutcomeLog once_log;
    PipeSim once(pipe, once_maps, bigQueue());
    once.attachRetireSink(&once_log);
    for (const net::Packet &pkt : packets)
        ASSERT_TRUE(once.offer(pkt));
    once.drain();

    ASSERT_EQ(burst_log.outcomes.size(), once_log.outcomes.size());
    for (size_t i = 0; i < once_log.outcomes.size(); ++i) {
        EXPECT_EQ(burst_log.outcomes[i].id, once_log.outcomes[i].id);
        EXPECT_EQ(burst_log.outcomes[i].action, once_log.outcomes[i].action);
        EXPECT_EQ(burst_log.outcomes[i].bytes, once_log.outcomes[i].bytes);
    }
    EXPECT_TRUE(MapSet::equal(burst_maps, once_maps));
}

}  // namespace
}  // namespace ehdl::sim
