/**
 * @file
 * Host DMA datapath tests: queue mechanics (FIFO backpressure, DMA
 * batching, coalescing triggers, TX re-emit, descriptor conservation),
 * the observer contract (attaching the host model never perturbs the
 * pipeline, and host counters are bit-identical across every engine and
 * scheduling mode), deterministic backpressure drops on small rings,
 * multi-replica attachment in sharded/shared/threaded modes, traffic-mix
 * coverage (uniform/Zipf/churn), and the stats_stream schedule verb.
 */

#include <gtest/gtest.h>

#include <vector>

#include "apps/apps.hpp"
#include "common/logging.hpp"
#include "ctl/controller.hpp"
#include "hdl/compiler.hpp"
#include "host/host_dma.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace ehdl::host {
namespace {

using apps::AppSpec;
using ebpf::MapSet;
using ebpf::XdpAction;
using sim::MultiPipeSim;
using sim::MultiPipeSimConfig;
using sim::PacketOutcome;
using sim::PipeSim;
using sim::PipeSimConfig;

/** A PASS retirement of @p len payload bytes (for direct queue feeding). */
PacketOutcome
passOutcome(uint64_t id, size_t len = 64)
{
    PacketOutcome out;
    out.id = id;
    out.action = XdpAction::Pass;
    out.bytes.assign(len, 0);
    return out;
}

/** The six contracted engine x sched combinations. */
struct EngineCombo
{
    const char *engine;
    sim::SchedMode sched;
};

const EngineCombo kCombos[] = {
    {"interp", sim::SchedMode::Dense},
    {"interp", sim::SchedMode::EventDriven},
    {"aot", sim::SchedMode::Dense},
    {"aot", sim::SchedMode::EventDriven},
    {"aot-native", sim::SchedMode::Dense},
    {"aot-native", sim::SchedMode::EventDriven},
};

/** PASS-heavy firewall traffic: tagged flows flip to TCP, which the
 *  simple firewall passes, so hostFlowFraction controls the PASS share. */
sim::TrafficConfig
hostTraffic(double host_fraction, double zipf_s = 0.0,
            uint64_t churn_period = 0)
{
    sim::TrafficConfig tc;
    tc.numFlows = 64;
    tc.seed = 11;
    tc.zipfS = zipf_s;
    tc.churnPeriod = churn_period;
    tc.ipProto = net::kIpProtoUdp;
    tc.hostFlowFraction = host_fraction;
    return tc;
}

std::vector<net::Packet>
makeTrace(const sim::TrafficConfig &tc, int num_packets)
{
    sim::TrafficGen gen(tc);
    std::vector<net::Packet> packets;
    packets.reserve(static_cast<size_t>(num_packets));
    for (int i = 0; i < num_packets; ++i)
        packets.push_back(gen.next());
    return packets;
}

/** Run @p packets through the firewall under one engine/sched combo with
 *  a host datapath and, after it, an outcome recorder attached; returns
 *  (pipe stats, host counters, recorded retirements). */
struct SingleRun
{
    sim::PipeSimStats stats;
    HostQueueCounters host;
    std::vector<PacketOutcome> outcomes;
};

SingleRun
runSingle(const std::vector<net::Packet> &packets, const EngineCombo &combo,
          const HostDmaConfig &hc)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);

    PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    EXPECT_TRUE(sim::parseEngineSpec(combo.engine, sc));
    sc.schedMode = combo.sched;

    HostDatapath host(hc);
    sim::OutcomeLog log;
    PipeSim sim(pipe, maps, sc);
    host.attach(sim);
    sim.attachRetireSink(&log);
    for (const net::Packet &pkt : packets)
        sim.offer(pkt);
    sim.drain();
    host.finishAll();
    return {sim.stats(), host.queue(0).counters(), std::move(log.outcomes)};
}

// --- Queue mechanics --------------------------------------------------

TEST(HostQueue, PassOnlyEntersTheRxPath)
{
    HostDmaConfig hc;
    HostQueue q(hc, 0);
    PacketOutcome drop = passOutcome(1);
    drop.action = XdpAction::Drop;
    q.onRetire(10, drop);
    PacketOutcome tx = passOutcome(2);
    tx.action = XdpAction::Tx;
    q.onRetire(20, tx);
    q.onRetire(30, passOutcome(3, 100));
    q.finish();
    EXPECT_EQ(q.counters().enqueued, 1u);
    EXPECT_EQ(q.counters().consumed, 1u);
    EXPECT_EQ(q.counters().consumedBytes, 100u);
    EXPECT_EQ(q.counters().shellDrops, 0u);
}

TEST(HostQueue, FullFifoDropsUnderTheDistinctCounter)
{
    HostDmaConfig hc;
    hc.shellFifoDepth = 4;
    hc.ringDepth = 4;
    // A host so slow nothing drains while retirements arrive.
    hc.hostRateMpps = 0.001;
    HostQueue q(hc, 0);
    // Back-to-back retirements at one cycle: the FIFO (4) plus the ring
    // and DMA pipeline absorb a few, the rest are shell drops.
    for (uint64_t i = 0; i < 64; ++i)
        q.onRetire(100, passOutcome(i));
    EXPECT_GT(q.counters().shellDrops, 0u);
    q.finish();
    const HostQueueCounters &c = q.counters();
    EXPECT_EQ(c.enqueued, 64u);
    EXPECT_EQ(c.consumed + c.shellDrops, c.enqueued);
    EXPECT_EQ(c.fifoOccupancy, 0u);
    EXPECT_EQ(c.ringOccupancy, 0u);
}

TEST(HostQueue, CoalescingCountAndTimerTriggers)
{
    HostDmaConfig hc;
    hc.batchSize = 4;
    hc.coalesceCount = 4;
    hc.coalesceTimeoutCycles = 50;
    HostQueue count_q(hc, 0);
    // A full batch lands at once: the count threshold fires the IRQ.
    for (uint64_t i = 0; i < 4; ++i)
        count_q.onRetire(0, passOutcome(i));
    count_q.finish();
    EXPECT_EQ(count_q.counters().countTriggeredIrqs, 1u);
    EXPECT_EQ(count_q.counters().timerTriggeredIrqs, 0u);

    // A single descriptor can only IRQ via the coalescing timer.
    HostQueue timer_q(hc, 0);
    timer_q.onRetire(0, passOutcome(0));
    timer_q.finish();
    EXPECT_EQ(timer_q.counters().countTriggeredIrqs, 0u);
    EXPECT_EQ(timer_q.counters().timerTriggeredIrqs, 1u);
    EXPECT_EQ(timer_q.counters().interrupts, 1u);
}

TEST(HostQueue, DmaBatchesDescriptors)
{
    HostDmaConfig hc;
    hc.batchSize = 8;
    HostQueue q(hc, 0);
    for (uint64_t i = 0; i < 8; ++i)
        q.onRetire(0, passOutcome(i, 128));
    q.finish();
    const HostQueueCounters &c = q.counters();
    EXPECT_EQ(c.dmaDescriptors, 8u);
    EXPECT_EQ(c.dmaBytes, 8u * 128u);
    // The DMA engine issues eagerly: the first descriptor goes out
    // alone on the idle link, the other seven batch up behind it while
    // the link is busy — two bursts, not eight.
    EXPECT_EQ(c.dmaBursts, 2u);
}

TEST(HostQueue, TxReinjectEmitsTheConfiguredFraction)
{
    HostDmaConfig hc;
    hc.txReinjectFraction = 0.5;
    HostQueue q(hc, 0);
    for (uint64_t i = 0; i < 100; ++i)
        q.onRetire(i * 10, passOutcome(i));
    q.finish();
    const HostQueueCounters &c = q.counters();
    EXPECT_EQ(c.consumed, 100u);
    EXPECT_EQ(c.txInjected, 50u);  // Bresenham: exactly 1 in 2
    EXPECT_EQ(c.txEmitted, c.txInjected);
    EXPECT_EQ(c.txRingDrops, 0u);
}

TEST(HostDatapath, RejectsInvalidConfigs)
{
    HostDmaConfig zero_queues;
    zero_queues.numQueues = 0;
    EXPECT_THROW(HostDatapath{zero_queues}, FatalError);
    HostDmaConfig zero_ring;
    zero_ring.ringDepth = 0;
    EXPECT_THROW(HostDatapath{zero_ring}, FatalError);
    HostDmaConfig bad_rate;
    bad_rate.hostRateMpps = 0.0;
    EXPECT_THROW(HostDatapath{bad_rate}, FatalError);
}

// --- The observer contract --------------------------------------------

/**
 * Deep rings, fast host: attaching the host datapath must not change a
 * single contracted pipeline counter, and the host-side counters must be
 * bit-identical across all six engine x sched combinations.
 */
TEST(HostContract, BitIdenticalAcrossEnginesAndScheds)
{
    const auto packets = makeTrace(hostTraffic(0.5), 3000);
    HostDmaConfig hc;
    hc.ringDepth = 1024;
    hc.shellFifoDepth = 256;
    hc.hostRateMpps = 100.0;
    hc.txReinjectFraction = 0.25;

    // Baseline: no host model, interp/dense.
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    sim::OutcomeLog bare_log;
    PipeSim bare(pipe, maps, sc);
    bare.attachRetireSink(&bare_log);
    for (const net::Packet &pkt : packets)
        bare.offer(pkt);
    bare.drain();
    const sim::PipeSimStats base = bare.stats();
    ASSERT_GT(base.passPackets, 0u);
    ASSERT_EQ(bare_log.outcomes.size(), packets.size());

    const SingleRun first = runSingle(packets, kCombos[0], hc);
    for (const EngineCombo &combo : kCombos) {
        SCOPED_TRACE(std::string(combo.engine) + "/" +
                     (combo.sched == sim::SchedMode::Dense ? "dense"
                                                           : "event"));
        const SingleRun run = runSingle(packets, combo, hc);
        // The pipeline never felt the host model.
        EXPECT_EQ(run.stats.cycles, base.cycles);
        EXPECT_EQ(run.stats.completed, base.completed);
        EXPECT_EQ(run.stats.flushEvents, base.flushEvents);
        EXPECT_EQ(run.stats.stallCycles, base.stallCycles);
        EXPECT_EQ(run.stats.passPackets, base.passPackets);
        EXPECT_EQ(run.stats.dropPackets, base.dropPackets);
        // The host counters are one bit pattern across all combos.
        EXPECT_EQ(run.host, first.host);
        // Deep ring + fast host: nothing dropped, everything conserved.
        EXPECT_EQ(run.host.shellDrops, 0u);
        EXPECT_EQ(run.host.enqueued, base.passPackets);
        EXPECT_EQ(run.host.consumed, base.passPackets);
        // A recorder attached after the host queue sees the same stream
        // as the recorder on the bare run.
        ASSERT_EQ(run.outcomes.size(), bare_log.outcomes.size());
        for (size_t i = 0; i < run.outcomes.size(); ++i) {
            const PacketOutcome &got = run.outcomes[i];
            const PacketOutcome &want = bare_log.outcomes[i];
            EXPECT_EQ(got.id, want.id);
            EXPECT_EQ(got.action, want.action);
            EXPECT_EQ(got.bytes, want.bytes);
            EXPECT_EQ(got.exitCycle, want.exitCycle);
        }
    }
}

/**
 * Small rings, slow host: backpressure must surface as shell drops under
 * the distinct counter — deterministically, the same count everywhere.
 */
TEST(HostContract, SmallRingBackpressureIsDeterministic)
{
    const auto packets = makeTrace(hostTraffic(0.7), 3000);
    HostDmaConfig hc;
    hc.ringDepth = 8;
    hc.shellFifoDepth = 8;
    hc.batchSize = 4;
    hc.hostRateMpps = 0.05;

    const SingleRun first = runSingle(packets, kCombos[0], hc);
    ASSERT_GT(first.host.shellDrops, 0u);
    EXPECT_EQ(first.host.consumed + first.host.shellDrops,
              first.host.enqueued);
    EXPECT_EQ(first.host.enqueued, first.stats.passPackets);
    for (const EngineCombo &combo : kCombos) {
        SCOPED_TRACE(std::string(combo.engine) + "/" +
                     (combo.sched == sim::SchedMode::Dense ? "dense"
                                                           : "event"));
        EXPECT_EQ(runSingle(packets, combo, hc).host, first.host);
    }
}

/** Uniform, Zipf-skewed and churning traffic all hold the contract. */
TEST(HostContract, TrafficMixes)
{
    const struct
    {
        const char *name;
        double zipfS;
        uint64_t churn;
    } mixes[] = {
        {"uniform", 0.0, 0},
        {"zipf", 1.1, 0},
        {"churn", 0.0, 500},
    };
    HostDmaConfig hc;
    hc.ringDepth = 32;
    hc.hostRateMpps = 1.0;
    for (const auto &mix : mixes) {
        SCOPED_TRACE(mix.name);
        const auto packets =
            makeTrace(hostTraffic(0.4, mix.zipfS, mix.churn), 2000);
        const SingleRun interp_dense =
            runSingle(packets, {"interp", sim::SchedMode::Dense}, hc);
        const SingleRun aot_event =
            runSingle(packets, {"aot", sim::SchedMode::EventDriven}, hc);
        EXPECT_EQ(interp_dense.host, aot_event.host);
        EXPECT_GT(interp_dense.host.enqueued, 0u);
        EXPECT_EQ(interp_dense.host.consumed + interp_dense.host.shellDrops,
                  interp_dense.host.enqueued);
    }
}

/** hostFlowFraction actually shifts the verdict mix toward PASS. */
TEST(HostTraffic, FractionControlsPassShare)
{
    const auto forward = makeTrace(hostTraffic(0.0), 1000);
    const auto host_heavy = makeTrace(hostTraffic(0.8), 1000);
    HostDmaConfig hc;
    const sim::PipeSimStats fwd =
        runSingle(forward, kCombos[0], hc).stats;
    const sim::PipeSimStats heavy =
        runSingle(host_heavy, kCombos[0], hc).stats;
    EXPECT_GT(heavy.passPackets, fwd.passPackets);
    EXPECT_GT(heavy.passPackets, 500u);
}

// --- Multi-replica attachment -----------------------------------------

MultiPipeSimConfig
multiConfig(unsigned replicas, bool threaded)
{
    MultiPipeSimConfig mc;
    mc.numReplicas = replicas;
    mc.threaded = threaded;
    mc.pipe.inputQueueCapacity = 1u << 20;
    return mc;
}

/** 4-replica run: queue r serves replica r, totals identical across
 *  the sequential and threaded drains. */
TEST(HostMulti, ShardedSharedThreadedAgree)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const auto packets = makeTrace(hostTraffic(0.5), 3000);

    HostDmaConfig hc;
    hc.numQueues = 4;
    hc.ringDepth = 16;
    hc.hostRateMpps = 0.5;

    auto run = [&](bool threaded) {
        MapSet maps(spec.prog.maps);
        spec.seedMaps(maps);
        MultiPipeSim multi(pipe, maps, multiConfig(4, threaded));
        HostDatapath host(hc);
        host.attach(multi);
        for (const net::Packet &pkt : packets)
            multi.offer(pkt);
        multi.drain();
        host.finishAll();
        std::vector<HostQueueCounters> per_queue;
        for (unsigned q = 0; q < 4; ++q) {
            per_queue.push_back(host.queue(q).counters());
            EXPECT_EQ(per_queue.back().enqueued,
                      multi.replica(q).stats().passPackets);
            EXPECT_EQ(per_queue.back().consumed +
                          per_queue.back().shellDrops,
                      per_queue.back().enqueued);
        }
        return per_queue;
    };

    const auto sharded = run(false);
    const auto threaded = run(true);
    for (unsigned q = 0; q < 4; ++q) {
        SCOPED_TRACE("queue " + std::to_string(q));
        EXPECT_EQ(sharded[q], threaded[q]);
    }
    // RSS spread the host-destined flows across queues.
    unsigned active = 0;
    for (const HostQueueCounters &c : sharded)
        active += c.enqueued > 0 ? 1 : 0;
    EXPECT_GE(active, 2u);
}

TEST(HostMulti, RejectsFewerQueuesThanReplicas)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    MultiPipeSim multi(pipe, maps,
                       multiConfig(4, false));
    HostDmaConfig hc;
    hc.numQueues = 2;
    HostDatapath host(hc);
    EXPECT_THROW(host.attach(multi), FatalError);
}

// --- stats_stream schedule verb ---------------------------------------

TEST(StatsStream, ScheduleRoundTrip)
{
    ctl::CtlSchedule sched;
    ctl::CtlTxn txn;
    txn.cycle = 350;
    txn.kind = ctl::CtlOpKind::StatsStream;
    txn.streamPeriod = 500;
    txn.streamCount = 8;
    sched.txns.push_back(txn);

    const std::string text = ctl::serializeSchedule(sched);
    EXPECT_NE(text.find("stream 500 8"), std::string::npos);
    const ctl::CtlSchedule parsed = ctl::parseSchedule(text);
    ASSERT_EQ(parsed.txns.size(), 1u);
    EXPECT_EQ(parsed.txns[0].kind, ctl::CtlOpKind::StatsStream);
    EXPECT_EQ(parsed.txns[0].cycle, 350u);
    EXPECT_EQ(parsed.txns[0].streamPeriod, 500u);
    EXPECT_EQ(parsed.txns[0].streamCount, 8u);

    EXPECT_THROW(ctl::parseSchedule("@10 stream 0 4"), FatalError);
    EXPECT_THROW(ctl::parseSchedule("@10 stream 100 0"), FatalError);
}

/** A stream transaction samples the attached host queue's counters. */
TEST(StatsStream, SamplesHostCounters)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    const auto packets = makeTrace(hostTraffic(0.5), 2000);

    PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    PipeSim sim(pipe, maps, sc);
    HostDmaConfig hc;
    hc.ringDepth = 32;
    hc.hostRateMpps = 1.0;
    HostDatapath host(hc);
    host.attach(sim);
    for (const net::Packet &pkt : packets)
        sim.offer(pkt);

    ctl::CtlController ctrl(sim, maps);
    ctrl.attachHost(&host);
    const ctl::CtlRunReport report =
        ctrl.run(ctl::parseSchedule("@100 stream 400 6"));
    sim.drain();
    host.finishAll();

    ASSERT_EQ(report.txns.size(), 1u);
    const ctl::CtlTxnRecord &rec = report.txns[0];
    ASSERT_EQ(rec.streamSamples.size(), 1u);
    const auto &series = rec.streamSamples[0];
    ASSERT_EQ(series.size(), 6u);
    for (size_t i = 0; i < series.size(); ++i) {
        ASSERT_TRUE(series[i].hostValid);
        EXPECT_EQ(series[i].cycle, rec.deviceCycle + i * 400);
        if (i > 0) {
            // Counters are monotone along the series.
            EXPECT_GE(series[i].host.enqueued, series[i - 1].host.enqueued);
            EXPECT_GE(series[i].host.consumed, series[i - 1].host.consumed);
            EXPECT_GE(series[i].stats.completed,
                      series[i - 1].stats.completed);
        }
    }
    // The mailbox stays busy while the device streams.
    EXPECT_GE(rec.completeCycle, rec.deviceCycle + 5 * 400);
    // The series never exceeds the final totals.
    EXPECT_LE(series.back().host.consumed, host.queue(0).counters().consumed);
}

}  // namespace
}  // namespace ehdl::host
