/**
 * @file
 * Control-plane subsystem tests: mailbox channel timing, schedule
 * parsing, quiescence semantics (a packet in flight across a host update
 * epoch must observe the entire old or entire new entry, never a torn
 * one), generation counters, quiesced program hot-swap under load,
 * replica fan-out to every private shard, threaded MultiPipeSim execution,
 * and the VM-replay differential contract across every example app.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "apps/apps.hpp"
#include "common/bitops.hpp"
#include "common/logging.hpp"
#include "ctl/controller.hpp"
#include "ebpf/builder.hpp"
#include "ebpf/helpers.hpp"
#include "hdl/compiler.hpp"
#include "replica_logs.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace ehdl::ctl {
namespace {

using ebpf::AluOp;
using ebpf::JmpOp;
using ebpf::MapKind;
using ebpf::MapSet;
using ebpf::MemSize;
using ebpf::ProgramBuilder;
using ebpf::XdpAction;

constexpr unsigned R0 = 0, R1 = 1, R2 = 2, R3 = 3, R4 = 4, R5 = 5,
                   FP = 10;

net::Packet
defaultPacket(uint64_t id, uint64_t arrival_ns = 0)
{
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    pkt.id = id;
    pkt.arrivalNs = arrival_ns;
    return pkt;
}

std::vector<uint8_t>
key32(uint32_t v)
{
    std::vector<uint8_t> k(4);
    storeLe<uint32_t>(k.data(), v);
    return k;
}

std::vector<uint8_t>
val64(uint64_t v)
{
    std::vector<uint8_t> out(8);
    storeLe<uint64_t>(out.data(), v);
    return out;
}

CtlTxn
updateTxn(uint64_t cycle, const std::string &map, std::vector<uint8_t> key,
          std::vector<uint8_t> value)
{
    CtlTxn txn;
    txn.cycle = cycle;
    txn.kind = CtlOpKind::MapUpdate;
    CtlMapOp op;
    op.kind = CtlOpKind::MapUpdate;
    op.map = map;
    op.key = std::move(key);
    op.value = std::move(value);
    txn.ops.push_back(std::move(op));
    return txn;
}

/**
 * The torn-update probe: reads the two 4-byte halves of an 8-byte map
 * value and returns DROP when they differ, PASS when they match (or the
 * entry is absent). The host only ever installs values whose halves
 * match, so any DROP means a packet observed a torn host write.
 */
ebpf::Program
makeTornProbe()
{
    ProgramBuilder b("torn_probe");
    const uint32_t cfg = b.addMap({"cfg", MapKind::Array, 4, 8, 1});
    b.mov(R3, 0);
    b.stx(MemSize::W, FP, -4, R3);
    b.ldMap(R1, cfg);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -4);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "pass");
    b.ldx(MemSize::W, R4, R0, 0);
    b.ldx(MemSize::W, R5, R0, 4);
    b.jcondReg(JmpOp::Jne, R4, R5, "drop");
    b.label("pass");
    b.mov(R0, 2);
    b.exit();
    b.label("drop");
    b.mov(R0, 1);
    b.exit();
    return b.build();
}

/** 8-byte value with both halves set to @p half. */
std::vector<uint8_t>
halves(uint32_t half)
{
    std::vector<uint8_t> v(8);
    storeLe<uint32_t>(v.data(), half);
    storeLe<uint32_t>(v.data() + 4, half);
    return v;
}

/** A trivial pipeline returning a fixed action (for swap tests). */
ebpf::Program
makeConstProgram(const std::string &name, int64_t action)
{
    ProgramBuilder b(name);
    b.mov(R0, action);
    b.exit();
    return b.build();
}

// --- Channel timing ---------------------------------------------------

TEST(CtlChannel, LatencySplitAndSerialization)
{
    CtlChannelConfig config;
    config.roundTripCycles = 100;
    config.maxInFlight = 8;
    CtlChannel ch(config);
    EXPECT_EQ(ch.upLatency(), 50u);
    EXPECT_EQ(ch.downLatency(), 50u);
    EXPECT_EQ(ch.upLatency() + ch.downLatency(), 100u);

    // Submissions serialize: a later transaction wanting an earlier
    // cycle leaves no sooner than its predecessor.
    EXPECT_EQ(ch.submit(40), 40u);
    EXPECT_EQ(ch.submit(10), 40u);
    EXPECT_EQ(ch.submit(60), 60u);
    // Completion is visible downLatency after the device-side apply.
    EXPECT_EQ(ch.complete(200), 250u);
}

TEST(CtlChannel, OddRoundTripSplitsLossless)
{
    CtlChannelConfig config;
    config.roundTripCycles = 7;
    CtlChannel ch(config);
    EXPECT_EQ(ch.upLatency() + ch.downLatency(), 7u);
}

TEST(CtlChannel, BackpressureBoundsInFlight)
{
    CtlChannelConfig config;
    config.roundTripCycles = 100;
    config.maxInFlight = 1;
    CtlChannel ch(config);
    EXPECT_EQ(ch.submit(0), 0u);
    // Device applies at cycle 50; host sees completion at 100.
    EXPECT_EQ(ch.complete(50), 100u);
    // The ring has one slot, so the next submission waits for that
    // completion even though the host wanted cycle 0.
    EXPECT_EQ(ch.submit(0), 100u);
}

TEST(CtlChannel, RejectsDegenerateConfigs)
{
    CtlChannelConfig rtt;
    rtt.roundTripCycles = 1;
    EXPECT_THROW(CtlChannel{rtt}, FatalError);
    CtlChannelConfig ring;
    ring.maxInFlight = 0;
    EXPECT_THROW(CtlChannel{ring}, FatalError);
}

// --- Schedule format --------------------------------------------------

TEST(CtlSchedule, ParseSerializeRoundTrip)
{
    const std::string text =
        "# comment\n"
        "@120 update counters 01000000 0a00000000000000 any\n"
        "@140 delete flows deadbeef\n"
        "@200 lookup counters 01000000\n"
        "@300 stats\n"
        "@400 drain\n"
        "@500 swap alt\n"
        "@600 batch update m 01000000 aa000000 noexist ; delete m "
        "02000000\n";
    const CtlSchedule sched = parseSchedule(text);
    ASSERT_EQ(sched.txns.size(), 7u);
    EXPECT_EQ(sched.txns[0].kind, CtlOpKind::MapUpdate);
    EXPECT_EQ(sched.txns[1].kind, CtlOpKind::MapDelete);
    EXPECT_EQ(sched.txns[2].kind, CtlOpKind::MapLookup);
    EXPECT_EQ(sched.txns[3].kind, CtlOpKind::StatsRead);
    EXPECT_EQ(sched.txns[4].kind, CtlOpKind::Drain);
    EXPECT_EQ(sched.txns[5].kind, CtlOpKind::SwapProgram);
    EXPECT_EQ(sched.txns[5].program, "alt");
    EXPECT_EQ(sched.txns[6].ops.size(), 2u);
    EXPECT_EQ(sched.txns[6].ops[0].flags,
              static_cast<uint64_t>(ebpf::kBpfNoExist));
    // serialize(parse(x)) must be a fixed point of parse.
    EXPECT_EQ(parseSchedule(serializeSchedule(sched)), sched);
}

TEST(CtlSchedule, ParseSortsByCycle)
{
    const CtlSchedule sched = parseSchedule("@500 stats\n@100 stats\n");
    ASSERT_EQ(sched.txns.size(), 2u);
    EXPECT_EQ(sched.txns[0].cycle, 100u);
    EXPECT_EQ(sched.txns[1].cycle, 500u);
}

TEST(CtlSchedule, ParseRejectsMalformedInput)
{
    EXPECT_THROW(parseSchedule("update m 00 00\n"), FatalError);   // no @
    EXPECT_THROW(parseSchedule("@10 frobnicate m\n"), FatalError);
    EXPECT_THROW(parseSchedule("@10 update m 0g 00\n"), FatalError);
    EXPECT_THROW(parseSchedule("@10 update m 000 00\n"), FatalError);
    EXPECT_THROW(parseSchedule("@10 swap\n"), FatalError);
}

TEST(CtlSchedule, ParseRejectsSignedCycleWithLineNumber)
{
    // std::stoull would wrap "-5" to 2^64 - 5, which sorts last and so
    // passed the cycle-order check.
    try {
        parseSchedule("@10 stats\n@-5 stats\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'-5'"), std::string::npos) << msg;
    }
    EXPECT_THROW(parseSchedule("@+5 stats\n"), FatalError);
    EXPECT_THROW(parseSchedule("@10 stream -1 4\n"), FatalError);
}

// --- Quiescence semantics --------------------------------------------

TEST(CtlController, PacketsNeverObserveTornUpdates)
{
    const ebpf::Program prog = makeTornProbe();
    const hdl::Pipeline pipe = hdl::compile(prog);
    MapSet maps(prog.maps);
    ASSERT_EQ(maps.byName("cfg")->hostUpdate(key32(0), halves(0x11111111)),
              0);

    sim::PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    sim::OutcomeLog log;
    sim::PipeSim sim(pipe, maps, sc);
    sim.attachRetireSink(&log);
    const uint64_t n = 600;
    for (uint64_t i = 1; i <= n; ++i)
        ASSERT_TRUE(sim.offer(defaultPacket(i)));

    // Flip the whole value back and forth while packets are in flight.
    CtlChannelConfig cc;
    cc.roundTripCycles = 10;
    CtlSchedule sched;
    sched.txns.push_back(updateTxn(100, "cfg", key32(0),
                                   halves(0x22222222)));
    sched.txns.push_back(updateTxn(200, "cfg", key32(0),
                                   halves(0x11111111)));
    sched.txns.push_back(updateTxn(300, "cfg", key32(0),
                                   halves(0x22222222)));

    CtlController ctrl(sim, maps, cc);
    const CtlRunReport report = ctrl.run(sched);
    sim.drain();

    ASSERT_EQ(sim.stats().completed, n);
    // Every update must have landed strictly mid-stream, or the test
    // would not be exercising the hazard window at all.
    for (const CtlTxnRecord &rec : report.txns) {
        EXPECT_GT(rec.retiredBefore[0], 0u);
        EXPECT_LT(rec.retiredBefore[0], n);
    }
    // PASS means the halves matched; one DROP is one torn observation.
    for (const sim::PacketOutcome &out : log.outcomes)
        EXPECT_EQ(out.action, XdpAction::Pass)
            << "packet " << out.id << " observed a torn update";
}

TEST(CtlController, UpdateAppliesAtPacketBoundary)
{
    // The VM replay of the apply log must reproduce the pipeline's
    // verdicts exactly: the update epoch boundary recorded in
    // retiredBefore is the packet index where behaviour changes.
    const ebpf::Program prog = makeTornProbe();
    const hdl::Pipeline pipe = hdl::compile(prog);
    MapSet maps(prog.maps);

    sim::PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    sim::OutcomeLog log;
    sim::PipeSim sim(pipe, maps, sc);
    sim.attachRetireSink(&log);
    std::vector<net::Packet> packets;
    for (uint64_t i = 1; i <= 400; ++i)
        packets.push_back(defaultPacket(i));
    for (const net::Packet &pkt : packets)
        ASSERT_TRUE(sim.offer(pkt));

    CtlChannelConfig cc;
    cc.roundTripCycles = 10;
    CtlSchedule sched;
    // Install a torn-looking value (halves differ): packets after the
    // epoch DROP, packets before it PASS (entry starts absent).
    CtlTxn bad = updateTxn(150, "cfg", key32(0), val64(0x1));
    sched.txns.push_back(bad);
    CtlController ctrl(sim, maps, cc);
    const CtlRunReport report = ctrl.run(sched);
    sim.drain();

    ASSERT_EQ(report.txns.size(), 1u);
    const uint64_t boundary = report.txns[0].retiredBefore[0];
    ASSERT_GT(boundary, 0u);
    ASSERT_LT(boundary, 400u);
    const auto &outcomes = log.outcomes;
    ASSERT_EQ(outcomes.size(), 400u);
    for (size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].action,
                  i < boundary ? XdpAction::Pass : XdpAction::Drop)
            << "at index " << i << " (boundary " << boundary << ")";

    // And the VM replay agrees packet by packet.
    MapSet vm_maps(prog.maps);
    const CtlVmReplayResult replay = replayScheduleOnVm(
        prog, {}, packets, report, 0, vm_maps);
    ASSERT_EQ(replay.outcomes.size(), outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(replay.outcomes[i].action, outcomes[i].action);
    EXPECT_TRUE(MapSet::equal(maps, vm_maps));
}

TEST(CtlController, StatsReadIsSideband)
{
    const ebpf::Program prog = makeTornProbe();
    const hdl::Pipeline pipe = hdl::compile(prog);
    MapSet maps(prog.maps);
    sim::PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    sim::PipeSim sim(pipe, maps, sc);
    for (uint64_t i = 1; i <= 300; ++i)
        ASSERT_TRUE(sim.offer(defaultPacket(i)));

    CtlChannelConfig cc;
    cc.roundTripCycles = 10;
    CtlSchedule sched;
    CtlTxn stats;
    stats.cycle = 100;
    stats.kind = CtlOpKind::StatsRead;
    sched.txns.push_back(stats);
    CtlController ctrl(sim, maps, cc);
    const CtlRunReport report = ctrl.run(sched);
    sim.drain();

    ASSERT_EQ(report.txns.size(), 1u);
    const CtlTxnRecord &rec = report.txns[0];
    // No quiescence: the read samples at exactly the device cycle, while
    // packets are still in flight (retired < offered).
    EXPECT_EQ(rec.applyCycle[0], rec.deviceCycle);
    EXPECT_LT(rec.retiredBefore[0], 300u);
    ASSERT_EQ(rec.statsSnapshot.size(), 1u);
    EXPECT_EQ(rec.statsSnapshot[0].completed, rec.retiredBefore[0]);
    // Side-band reads cost the datapath nothing: n + stages + slack.
    EXPECT_LE(sim.stats().cycles, 300 + pipe.numStages() + 8);
}

TEST(CtlController, DrainRetiresEverythingOffered)
{
    const ebpf::Program prog = makeTornProbe();
    const hdl::Pipeline pipe = hdl::compile(prog);
    MapSet maps(prog.maps);
    sim::PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    sim::PipeSim sim(pipe, maps, sc);
    for (uint64_t i = 1; i <= 200; ++i)
        ASSERT_TRUE(sim.offer(defaultPacket(i)));

    CtlSchedule sched;
    CtlTxn drain;
    drain.cycle = 10;
    drain.kind = CtlOpKind::Drain;
    sched.txns.push_back(drain);
    CtlController ctrl(sim, maps);
    const CtlRunReport report = ctrl.run(sched);
    EXPECT_EQ(report.txns[0].retiredBefore[0], 200u);
    EXPECT_EQ(sim.stats().completed, 200u);
}

TEST(CtlController, GenerationBumpsOncePerMutatingTxn)
{
    const ebpf::Program prog = makeTornProbe();
    const hdl::Pipeline pipe = hdl::compile(prog);
    MapSet maps(prog.maps);
    sim::PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    sim::PipeSim sim(pipe, maps, sc);

    CtlSchedule sched;
    // One update, then a batch of three primitives on the same map, then
    // a lookup: generations must advance by 1, 1 and 0.
    sched.txns.push_back(updateTxn(10, "cfg", key32(0), val64(1)));
    CtlTxn batch;
    batch.cycle = 20;
    batch.kind = CtlOpKind::MapBatch;
    for (int i = 0; i < 3; ++i) {
        CtlMapOp op;
        op.kind = CtlOpKind::MapUpdate;
        op.map = "cfg";
        op.key = key32(0);
        op.value = val64(static_cast<uint64_t>(i));
        batch.ops.push_back(std::move(op));
    }
    sched.txns.push_back(batch);
    CtlTxn lookup;
    lookup.cycle = 30;
    lookup.kind = CtlOpKind::MapLookup;
    CtlMapOp look;
    look.kind = CtlOpKind::MapLookup;
    look.map = "cfg";
    look.key = key32(0);
    lookup.ops.push_back(look);
    sched.txns.push_back(lookup);

    CtlController ctrl(sim, maps);
    const uint64_t gen0 = maps.byName("cfg")->generation();
    ctrl.run(sched);
    EXPECT_EQ(maps.byName("cfg")->generation(), gen0 + 2);
    // Failed mutations open no new epoch.
    CtlSchedule failing;
    CtlTxn bad = updateTxn(40, "cfg", key32(0), val64(9));
    bad.ops[0].flags = ebpf::kBpfNoExist;  // array entries always exist
    failing.txns.push_back(bad);
    ctrl.run(failing);
    EXPECT_EQ(maps.byName("cfg")->generation(), gen0 + 2);
    sim.drain();
}

// --- Program hot-swap -------------------------------------------------

TEST(CtlController, SwapUnderLoadLosesNoPackets)
{
    const ebpf::Program prog_a = makeConstProgram("always_tx", 3);
    const ebpf::Program prog_b = makeConstProgram("always_drop", 1);
    const hdl::Pipeline pipe_a = hdl::compile(prog_a);
    const hdl::Pipeline pipe_b = hdl::compile(prog_b);

    MapSet maps(prog_a.maps);
    sim::PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    sim::OutcomeLog log;
    sim::PipeSim sim(pipe_a, maps, sc);
    sim.attachRetireSink(&log);
    const uint64_t n = 500;
    for (uint64_t i = 1; i <= n; ++i)
        ASSERT_TRUE(sim.offer(defaultPacket(i)));

    CtlChannelConfig cc;
    cc.roundTripCycles = 10;
    CtlSchedule sched;
    CtlTxn swap;
    swap.cycle = 200;
    swap.kind = CtlOpKind::SwapProgram;
    swap.program = "b";
    sched.txns.push_back(swap);

    CtlController ctrl(sim, maps, cc);
    ctrl.addProgram("b", pipe_b);
    const CtlRunReport report = ctrl.run(sched);
    sim.drain();

    // Zero loss across the swap: everything offered retires.
    EXPECT_EQ(sim.stats().completed, n);
    EXPECT_EQ(sim.stats().lost, 0u);
    const uint64_t boundary = report.txns[0].retiredBefore[0];
    ASSERT_GT(boundary, 0u);
    ASSERT_LT(boundary, n);
    const auto &outcomes = log.outcomes;
    ASSERT_EQ(outcomes.size(), n);
    for (size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].action,
                  i < boundary ? XdpAction::Tx : XdpAction::Drop);

    // The replay contract covers swaps too.
    std::vector<net::Packet> packets;
    for (uint64_t i = 1; i <= n; ++i)
        packets.push_back(defaultPacket(i));
    MapSet vm_maps(prog_a.maps);
    std::map<std::string, const ebpf::Program *> programs;
    programs["b"] = &prog_b;
    const CtlVmReplayResult replay = replayScheduleOnVm(
        prog_a, programs, packets, report, 0, vm_maps);
    ASSERT_EQ(replay.outcomes.size(), n);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(replay.outcomes[i].action, outcomes[i].action);
}

TEST(CtlController, SwapKeepsAverageLatencyOverWholeRun)
{
    // The latency sum lives outside the per-program state swapPipeline
    // rebuilds, so the average still covers packets of both programs.
    const ebpf::Program prog_a = makeConstProgram("always_tx", 3);
    const ebpf::Program prog_b = makeConstProgram("always_drop", 1);
    const hdl::Pipeline pipe_a = hdl::compile(prog_a);
    const hdl::Pipeline pipe_b = hdl::compile(prog_b);
    MapSet maps(prog_a.maps);
    sim::PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    sim::OutcomeLog log;
    sim::PipeSim sim(pipe_a, maps, sc);
    sim.attachRetireSink(&log);
    for (uint64_t i = 1; i <= 500; ++i)
        ASSERT_TRUE(sim.offer(defaultPacket(i)));
    CtlChannelConfig cc;
    cc.roundTripCycles = 10;
    CtlSchedule sched;
    CtlTxn swap;
    swap.cycle = 200;
    swap.kind = CtlOpKind::SwapProgram;
    swap.program = "b";
    sched.txns.push_back(swap);
    CtlController ctrl(sim, maps, cc);
    ctrl.addProgram("b", pipe_b);
    const CtlRunReport report = ctrl.run(sched);
    sim.drain();

    const uint64_t boundary = report.txns[0].retiredBefore[0];
    ASSERT_GT(boundary, 0u);
    ASSERT_LT(boundary, 500u);
    ASSERT_EQ(log.outcomes.size(), 500u);
    double total_ns = 0;
    for (const sim::PacketOutcome &out : log.outcomes)
        total_ns += static_cast<double>(out.exitCycle - out.entryCycle + 1) *
                    4.0;
    EXPECT_DOUBLE_EQ(sim.avgLatencyNs(),
                     total_ns / static_cast<double>(log.outcomes.size()));
}

TEST(CtlController, SwapCarriesMapContentsOver)
{
    // Both programs read cfg; the swap must keep the host-installed
    // entry visible to the new pipeline.
    const ebpf::Program prog = makeTornProbe();
    const hdl::Pipeline pipe_a = hdl::compile(prog);
    const hdl::Pipeline pipe_b = hdl::compile(prog);
    MapSet maps(prog.maps);
    ASSERT_EQ(maps.byName("cfg")->hostUpdate(key32(0), halves(0x7)), 0);

    sim::PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    sim::OutcomeLog log;
    sim::PipeSim sim(pipe_a, maps, sc);
    sim.attachRetireSink(&log);
    for (uint64_t i = 1; i <= 100; ++i)
        ASSERT_TRUE(sim.offer(defaultPacket(i)));
    CtlSchedule sched;
    CtlTxn swap;
    swap.cycle = 50;
    swap.kind = CtlOpKind::SwapProgram;
    swap.program = "same";
    sched.txns.push_back(swap);
    CtlController ctrl(sim, maps);
    ctrl.addProgram("same", pipe_b);
    ctrl.run(sched);
    sim.drain();
    EXPECT_EQ(sim.stats().completed, 100u);
    for (const sim::PacketOutcome &out : log.outcomes)
        EXPECT_EQ(out.action, XdpAction::Pass);
    const auto v = maps.byName("cfg")->hostLookup(key32(0));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, halves(0x7));
}

TEST(CtlController, SwapRejectsMapShapeMismatch)
{
    const ebpf::Program prog_a = makeTornProbe();
    const ebpf::Program prog_b = makeConstProgram("no_maps", 2);
    const hdl::Pipeline pipe_a = hdl::compile(prog_a);
    const hdl::Pipeline pipe_b = hdl::compile(prog_b);
    MapSet maps(prog_a.maps);
    sim::PipeSim sim(pipe_a, maps);
    CtlSchedule sched;
    CtlTxn swap;
    swap.cycle = 10;
    swap.kind = CtlOpKind::SwapProgram;
    swap.program = "bad";
    sched.txns.push_back(swap);
    CtlController ctrl(sim, maps);
    ctrl.addProgram("bad", pipe_b);
    EXPECT_THROW(ctrl.run(sched), FatalError);
}

TEST(CtlController, ValidatesSchedules)
{
    const ebpf::Program prog = makeTornProbe();
    const hdl::Pipeline pipe = hdl::compile(prog);
    MapSet maps(prog.maps);
    sim::PipeSim sim(pipe, maps);
    CtlController ctrl(sim, maps);

    CtlSchedule unknown_map;
    unknown_map.txns.push_back(updateTxn(10, "nope", key32(0), val64(0)));
    EXPECT_THROW(ctrl.run(unknown_map), FatalError);

    CtlSchedule unknown_label;
    CtlTxn swap;
    swap.kind = CtlOpKind::SwapProgram;
    swap.program = "nope";
    unknown_label.txns.push_back(swap);
    EXPECT_THROW(ctrl.run(unknown_label), FatalError);

    CtlSchedule unordered;
    unordered.txns.push_back(updateTxn(100, "cfg", key32(0), val64(0)));
    unordered.txns.push_back(updateTxn(50, "cfg", key32(0), val64(0)));
    EXPECT_THROW(ctrl.run(unordered), FatalError);

    CtlSchedule oversized;
    CtlTxn batch;
    batch.kind = CtlOpKind::MapBatch;
    for (unsigned i = 0; i < ctrl.channel().config().maxBatchOps + 1;
         ++i) {
        CtlMapOp op;
        op.kind = CtlOpKind::MapUpdate;
        op.map = "cfg";
        op.key = key32(0);
        op.value = val64(i);
        batch.ops.push_back(std::move(op));
    }
    oversized.txns.push_back(batch);
    EXPECT_THROW(ctrl.run(oversized), FatalError);
}

// --- Multi-queue fan-out ----------------------------------------------

/** Offer @p n generated packets, returning per-replica streams. */
std::vector<std::vector<net::Packet>>
offerTraffic(sim::MultiPipeSim &multi, uint64_t n,
             std::vector<net::Packet> *all = nullptr)
{
    sim::TrafficConfig tc;
    tc.numFlows = 32;
    tc.seed = 11;
    sim::TrafficGen gen(tc);
    std::vector<std::vector<net::Packet>> streams(multi.numReplicas());
    for (uint64_t i = 0; i < n; ++i) {
        const net::Packet pkt = gen.next();
        streams[multi.dispatch(pkt)].push_back(pkt);
        if (all != nullptr)
            all->push_back(pkt);
        EXPECT_TRUE(multi.offer(pkt));
    }
    return streams;
}

TEST(CtlMulti, ShardedMutationsFanOutToEveryReplica)
{
    const ebpf::Program prog = makeTornProbe();
    const hdl::Pipeline pipe = hdl::compile(prog);
    MapSet seed(prog.maps);
    sim::MultiPipeSimConfig mc;
    mc.numReplicas = 4;
    mc.pipe.inputQueueCapacity = 1u << 20;
    sim::MultiPipeSim multi(pipe, seed, mc);
    offerTraffic(multi, 400);

    CtlChannelConfig cc;
    cc.roundTripCycles = 10;
    CtlSchedule sched;
    sched.txns.push_back(updateTxn(100, "cfg", key32(0), halves(0x42)));
    CtlTxn lookup;
    lookup.cycle = 200;
    lookup.kind = CtlOpKind::MapLookup;
    CtlMapOp look;
    look.kind = CtlOpKind::MapLookup;
    look.map = "cfg";
    look.key = key32(0);
    lookup.ops.push_back(look);
    sched.txns.push_back(lookup);

    CtlController ctrl(multi, cc);
    const CtlRunReport report = ctrl.run(sched);
    multi.drain();

    // The update reached every shard...
    for (unsigned r = 0; r < 4; ++r) {
        const auto v = multi.replicaMaps(r).byName("cfg")->hostLookup(
            key32(0));
        ASSERT_TRUE(v.has_value()) << "replica " << r;
        EXPECT_EQ(*v, halves(0x42));
    }
    // ...and the lookup returned one result per replica, all hits.
    ASSERT_EQ(report.txns[1].results.size(), 4u);
    for (unsigned r = 0; r < 4; ++r) {
        ASSERT_EQ(report.txns[1].results[r].size(), 1u);
        EXPECT_TRUE(report.txns[1].results[r][0].hit);
        EXPECT_EQ(report.txns[1].results[r][0].value, halves(0x42));
    }
}

TEST(CtlMulti, ThreadedMatchesSequentialSharded)
{
    const ebpf::Program prog = makeTornProbe();
    const hdl::Pipeline pipe = hdl::compile(prog);

    CtlSchedule sched;
    sched.txns.push_back(updateTxn(80, "cfg", key32(0), halves(0x1)));
    sched.txns.push_back(updateTxn(160, "cfg", key32(0), halves(0x2)));
    CtlTxn drain;
    drain.cycle = 400;
    drain.kind = CtlOpKind::Drain;
    sched.txns.push_back(drain);

    const auto runMode = [&](bool threaded) {
        MapSet seed(prog.maps);
        sim::MultiPipeSimConfig mc;
        mc.numReplicas = 3;
        mc.threaded = threaded;
        mc.pipe.inputQueueCapacity = 1u << 20;
        auto multi =
            std::make_unique<sim::MultiPipeSim>(pipe, seed, mc);
        sim::ReplicaLogs logs(*multi);
        offerTraffic(*multi, 300);
        CtlChannelConfig cc;
        cc.roundTripCycles = 10;
        CtlController ctrl(*multi, cc);
        const CtlRunReport report = ctrl.run(sched);
        multi->drain();
        return std::make_tuple(std::move(multi), report, logs.mergedById());
    };

    auto [seq, seq_report, a] = runMode(false);
    auto [thr, thr_report, b] = runMode(true);

    // Threaded execution is observationally identical to sequential:
    // same per-replica apply boundaries, results and final map state.
    ASSERT_EQ(seq_report.txns.size(), thr_report.txns.size());
    for (size_t t = 0; t < seq_report.txns.size(); ++t) {
        EXPECT_EQ(seq_report.txns[t].retiredBefore,
                  thr_report.txns[t].retiredBefore);
        EXPECT_EQ(seq_report.txns[t].results, thr_report.txns[t].results);
        EXPECT_EQ(seq_report.txns[t].completeCycle,
                  thr_report.txns[t].completeCycle);
    }
    for (unsigned r = 0; r < 3; ++r)
        EXPECT_TRUE(MapSet::equal(seq->replicaMaps(r),
                                  thr->replicaMaps(r)));
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].action, b[i].action);
    }
    // And no replica, threaded or not, ever saw a torn update.
    for (const sim::PacketOutcome &out : b)
        EXPECT_EQ(out.action, XdpAction::Pass);
}

// --- Differential sweep across the example apps -----------------------

TEST(CtlDifferential, EveryAppAgreesWithVmReplayUnderSchedule)
{
    const std::vector<apps::AppSpec> specs = {
        apps::makeToyCounter(),    apps::makeSimpleFirewall(),
        apps::makeRouterIpv4(),    apps::makeTxIpTunnel(),
        apps::makeDnat(),          apps::makeSuricataFilter(),
        apps::makeLeakyBucket(),   apps::makeMonitorSampler(),
        apps::makeL4LoadBalancer(), apps::makeElasticDemo(),
        apps::makeIpipDecap(),
    };
    for (const apps::AppSpec &spec : specs) {
        SCOPED_TRACE(spec.prog.name);
        const hdl::Pipeline pipe = hdl::compile(spec.prog);
        MapSet maps(spec.prog.maps);
        spec.seedMaps(maps);

        sim::TrafficConfig tc;
        tc.numFlows = 16;
        tc.ipProto = spec.ipProto;
        tc.reverseFraction = spec.reverseFraction;
        tc.seed = 5;
        sim::TrafficGen gen(tc);
        std::vector<net::Packet> packets;
        for (int i = 0; i < 300; ++i)
            packets.push_back(gen.next());

        sim::PipeSimConfig sc;
        sc.inputQueueCapacity = 1u << 20;
        sim::OutcomeLog log;
        sim::PipeSim sim(pipe, maps, sc);
        sim.attachRetireSink(&log);
        for (const net::Packet &pkt : packets)
            ASSERT_TRUE(sim.offer(pkt));

        // Mutate the first byte-shaped entry of every declared map plus
        // a delete and a lookup, mid-stream.
        CtlChannelConfig cc;
        cc.roundTripCycles = 20;
        CtlSchedule sched;
        uint64_t cycle = 60;
        for (const ebpf::MapDef &def : spec.prog.maps) {
            sched.txns.push_back(
                updateTxn(cycle, def.name,
                          std::vector<uint8_t>(def.keySize, 0),
                          std::vector<uint8_t>(def.valueSize, 0x5a)));
            cycle += 40;
            CtlTxn del;
            del.cycle = cycle;
            del.kind = CtlOpKind::MapDelete;
            CtlMapOp op;
            op.kind = CtlOpKind::MapDelete;
            op.map = def.name;
            op.key = std::vector<uint8_t>(def.keySize, 1);
            del.ops.push_back(std::move(op));
            sched.txns.push_back(std::move(del));
            cycle += 40;
        }
        CtlController ctrl(sim, maps, cc);
        const CtlRunReport report = ctrl.run(sched);
        sim.drain();
        ASSERT_EQ(sim.stats().completed, packets.size());

        MapSet vm_maps(spec.prog.maps);
        spec.seedMaps(vm_maps);
        const CtlVmReplayResult replay = replayScheduleOnVm(
            spec.prog, {}, packets, report, 0, vm_maps);
        const auto &outcomes = log.outcomes;
        ASSERT_EQ(outcomes.size(), replay.outcomes.size());
        for (size_t i = 0; i < outcomes.size(); ++i) {
            ASSERT_EQ(outcomes[i].id, replay.outcomes[i].id);
            EXPECT_EQ(outcomes[i].action, replay.outcomes[i].action)
                << "packet " << outcomes[i].id;
            EXPECT_EQ(outcomes[i].trapped, replay.outcomes[i].trapped);
            EXPECT_EQ(outcomes[i].redirectIfindex,
                      replay.outcomes[i].redirectIfindex);
            EXPECT_EQ(outcomes[i].bytes, replay.outcomes[i].bytes);
        }
        for (size_t t = 0; t < report.txns.size(); ++t)
            EXPECT_EQ(report.txns[t].results[0], replay.txnResults[t]);
        EXPECT_TRUE(MapSet::equal(maps, vm_maps));
    }
}

}  // namespace
}  // namespace ehdl::ctl
