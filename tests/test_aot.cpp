/**
 * @file
 * AOT engine conformance suite (docs/PERFORMANCE.md, "AOT-specialized
 * engine"): three-way differential checks — reference VM vs interpretive
 * PipeSim vs AOT-specialized PipeSim — over every built-in evaluation
 * application under uniform, Zipf-skewed and flow-churn traffic, in
 * single-queue and 4-replica (sequential / threaded) deployments.
 *
 * The AOT engine's contract is *bit-identical behaviour*: not just the
 * same verdicts, but the same cycle counts, stall counters, flush
 * statistics, retirement order and final map contents as the
 * interpreter, including across quiesced control-plane program hot-swaps
 * under load. The generated native source is additionally pinned as a
 * golden snapshot (deterministic codegen is what makes the on-disk
 * module cache sound).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "ctl/controller.hpp"
#include "ebpf/builder.hpp"
#include "ebpf/maps.hpp"
#include "ebpf/vm.hpp"
#include "hdl/compiler.hpp"
#include "replica_logs.hpp"
#include "sim/aot/native.hpp"
#include "sim/aot/specialize.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/traffic.hpp"

#ifndef EHDL_GOLDEN_DIR
#error "EHDL_GOLDEN_DIR must point at tests/golden"
#endif

namespace ehdl::sim {
namespace {

using apps::AppSpec;
using ebpf::MapSet;

// --- workload shapes --------------------------------------------------

struct Shape
{
    const char *name;
    double zipfS;
    uint64_t churnPeriod;
};

constexpr Shape kShapes[] = {
    {"uniform", 0.0, 0},
    {"zipf", 1.1, 0},
    {"churn", 0.0, 200},
};

std::vector<net::Packet>
makeWorkload(const AppSpec &spec, const Shape &shape, int num_packets)
{
    TrafficConfig tc;
    tc.numFlows = 256;
    tc.zipfS = shape.zipfS;
    tc.churnPeriod = shape.churnPeriod;
    tc.reverseFraction = spec.reverseFraction;
    tc.ipProto = spec.ipProto;
    tc.seed = 23;
    TrafficGen gen(tc);
    std::vector<net::Packet> packets;
    packets.reserve(num_packets);
    for (int i = 0; i < num_packets; ++i)
        packets.push_back(gen.next());
    return packets;
}

// --- engine runs ------------------------------------------------------

struct EngineRun
{
    PipeSimStats stats;
    std::vector<PacketOutcome> outcomes;
    MapSet maps;
    EngineInfo info;
};

EngineRun
runSingle(const AppSpec &spec, const hdl::Pipeline &pipe,
          const std::vector<net::Packet> &packets, SimEngine engine,
          AotBackend backend = AotBackend::Portable)
{
    EngineRun out;
    out.maps = MapSet(spec.prog.maps);
    spec.seedMaps(out.maps);
    PipeSimConfig config;
    config.inputQueueCapacity = 1u << 20;
    config.engine = engine;
    config.aotBackend = backend;
    OutcomeLog log;
    PipeSim sim(pipe, out.maps, config);
    sim.attachRetireSink(&log);
    for (const net::Packet &pkt : packets)
        sim.offer(pkt);
    sim.drain();
    out.stats = sim.stats();
    out.outcomes = std::move(log.outcomes);
    out.info = sim.engineInfo();
    return out;
}

void
expectSameStats(const PipeSimStats &a, const PipeSimStats &b)
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
        SCOPED_TRACE("outcome " + std::to_string(i));
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].action, b[i].action);
        EXPECT_EQ(a[i].redirectIfindex, b[i].redirectIfindex);
        EXPECT_EQ(a[i].trapped, b[i].trapped);
        EXPECT_EQ(a[i].entryCycle, b[i].entryCycle);
        EXPECT_EQ(a[i].exitCycle, b[i].exitCycle);
        EXPECT_EQ(a[i].bytes, b[i].bytes);
    }
}

/** VM leg of the three-way check against a sim run's outcomes. */
void
expectVmAgreement(const AppSpec &spec,
                  const std::vector<net::Packet> &packets,
                  const EngineRun &run)
{
    MapSet vm_maps(spec.prog.maps);
    spec.seedMaps(vm_maps);
    ebpf::Vm vm(spec.prog, vm_maps);
    std::map<uint64_t, const PacketOutcome *> by_id;
    for (const PacketOutcome &out : run.outcomes)
        by_id[out.id] = &out;
    ASSERT_EQ(by_id.size(), packets.size());
    for (const net::Packet &pkt : packets) {
        SCOPED_TRACE("packet " + std::to_string(pkt.id));
        net::Packet copy = pkt;
        const ebpf::ExecResult ref = vm.run(copy);
        const PacketOutcome &out = *by_id.at(pkt.id);
        EXPECT_EQ(static_cast<uint32_t>(ref.action),
                  static_cast<uint32_t>(out.action));
        EXPECT_EQ(ref.redirectIfindex, out.redirectIfindex);
        EXPECT_EQ(copy.bytes(), out.bytes);
    }
    EXPECT_TRUE(MapSet::equal(vm_maps, run.maps))
        << "vm:\n"
        << vm_maps.dump().substr(0, 600) << "\nsim:\n"
        << run.maps.dump().substr(0, 600);
}

// --- three-way conformance, single queue ------------------------------

struct ConformanceCase
{
    std::string name;
    AppSpec (*make)();
    Shape shape;
};

// The ctest name of a custom-named case carries the printed parameter;
// print the name, not the raw bytes (pointers make those differ per run).
void
PrintTo(const ConformanceCase &c, std::ostream *os)
{
    *os << c.name;
}

std::vector<ConformanceCase>
conformanceCases()
{
    struct NamedApp
    {
        const char *name;
        AppSpec (*make)();
    };
    const NamedApp named[] = {
        {"firewall", apps::makeSimpleFirewall},
        {"router", apps::makeRouterIpv4},
        {"tunnel", apps::makeTxIpTunnel},
        {"dnat", apps::makeDnat},
        {"suricata", apps::makeSuricataFilter},
    };
    std::vector<ConformanceCase> cases;
    for (const NamedApp &app : named)
        for (const Shape &shape : kShapes)
            cases.push_back({std::string(app.name) + "_" + shape.name,
                             app.make, shape});
    return cases;
}

class AotConformanceTest
    : public ::testing::TestWithParam<ConformanceCase>
{
};

TEST_P(AotConformanceTest, ThreeWaySingleQueue)
{
    const ConformanceCase &c = GetParam();
    const AppSpec spec = c.make();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const std::vector<net::Packet> packets =
        makeWorkload(spec, c.shape, 1500);

    const EngineRun interp =
        runSingle(spec, pipe, packets, SimEngine::Interp);
    const EngineRun aot = runSingle(spec, pipe, packets, SimEngine::Aot);

    ASSERT_EQ(interp.stats.completed, packets.size());
    expectSameStats(interp.stats, aot.stats);
    expectSameOutcomes(interp.outcomes, aot.outcomes);
    EXPECT_TRUE(MapSet::equal(interp.maps, aot.maps))
        << "interp:\n"
        << interp.maps.dump().substr(0, 600) << "\naot:\n"
        << aot.maps.dump().substr(0, 600);

    // The VM closes the triangle: interpreter vs VM (per-packet verdicts
    // and final maps), with the AOT run already shown bit-identical to
    // the interpreter above.
    expectVmAgreement(spec, packets, interp);
    expectVmAgreement(spec, packets, aot);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AotConformanceTest, ::testing::ValuesIn(conformanceCases()),
    [](const ::testing::TestParamInfo<ConformanceCase> &info) {
        return info.param.name;
    });

// --- multi-queue conformance ------------------------------------------

struct MultiRun
{
    PipeSimStats stats;
    std::vector<PacketOutcome> outcomes;
    std::vector<std::map<std::vector<uint8_t>, std::vector<uint8_t>>>
        mapSnapshots;
    EngineInfo info;
};

MultiRun
runMulti(const AppSpec &spec, const hdl::Pipeline &pipe,
         const std::vector<net::Packet> &packets, SimEngine engine,
         bool threaded)
{
    MapSet seed(spec.prog.maps);
    spec.seedMaps(seed);
    MultiPipeSimConfig mc;
    mc.numReplicas = 4;
    mc.threaded = threaded;
    mc.pipe.inputQueueCapacity = 1u << 20;
    mc.pipe.engine = engine;
    MultiPipeSim multi(pipe, seed, mc);
    ReplicaLogs logs(multi);
    for (const net::Packet &pkt : packets)
        multi.offer(pkt);
    multi.drain();
    MultiRun out;
    out.stats = multi.stats();
    out.outcomes = logs.mergedById();
    out.info = multi.engineInfo();
    for (size_t r = 0; r < multi.numReplicas(); ++r) {
        const MapSet &maps = multi.replicaMaps(r);
        for (size_t m = 0; m < maps.size(); ++m)
            out.mapSnapshots.push_back(
                maps.at(static_cast<uint32_t>(m)).snapshot());
    }
    return out;
}

struct MultiCase
{
    std::string name;
    AppSpec (*make)();
    bool threaded;
};

void
PrintTo(const MultiCase &c, std::ostream *os)
{
    *os << c.name;
}

std::vector<MultiCase>
multiCases()
{
    std::vector<MultiCase> cases;
    const std::pair<const char *, AppSpec (*)()> named[] = {
        {"firewall", apps::makeSimpleFirewall},
        {"router", apps::makeRouterIpv4},
        {"tunnel", apps::makeTxIpTunnel},
        {"dnat", apps::makeDnat},
        {"suricata", apps::makeSuricataFilter},
    };
    for (const auto &[name, make] : named) {
        cases.push_back({std::string(name) + "_sharded", make, false});
        cases.push_back({std::string(name) + "_threaded", make, true});
    }
    return cases;
}

class AotMultiQueueTest : public ::testing::TestWithParam<MultiCase>
{
};

TEST_P(AotMultiQueueTest, FourReplicasMatchInterp)
{
    const MultiCase &c = GetParam();
    const AppSpec spec = c.make();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const std::vector<net::Packet> packets =
        makeWorkload(spec, kShapes[0], 1200);

    const MultiRun interp = runMulti(spec, pipe, packets,
                                     SimEngine::Interp, c.threaded);
    const MultiRun aot = runMulti(spec, pipe, packets, SimEngine::Aot,
                                  c.threaded);

    ASSERT_EQ(interp.stats.completed, packets.size());
    EXPECT_EQ(aot.info.engine, SimEngine::Aot);
    expectSameStats(interp.stats, aot.stats);
    expectSameOutcomes(interp.outcomes, aot.outcomes);
    ASSERT_EQ(interp.mapSnapshots.size(), aot.mapSnapshots.size());
    for (size_t i = 0; i < interp.mapSnapshots.size(); ++i) {
        SCOPED_TRACE("map snapshot " + std::to_string(i));
        EXPECT_EQ(interp.mapSnapshots[i], aot.mapSnapshots[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AotMultiQueueTest, ::testing::ValuesIn(multiCases()),
    [](const ::testing::TestParamInfo<MultiCase> &info) {
        return info.param.name;
    });

// --- native backend ---------------------------------------------------

TEST(AotNative, ConformsOrReportsFallback)
{
    // The native backend may legitimately be unavailable (no host
    // compiler, sanitizer CI); the contract is then a *reported* clean
    // fallback, never silent divergence.
    for (const AppSpec &spec : apps::paperApps()) {
        SCOPED_TRACE(spec.prog.name);
        const hdl::Pipeline pipe = hdl::compile(spec.prog);
        const std::vector<net::Packet> packets =
            makeWorkload(spec, kShapes[0], 800);
        const EngineRun interp =
            runSingle(spec, pipe, packets, SimEngine::Interp);
        const EngineRun native = runSingle(spec, pipe, packets,
                                           SimEngine::Aot,
                                           AotBackend::Native);
        EXPECT_EQ(native.info.engine, SimEngine::Aot);
        if (!native.info.nativeLoaded) {
            EXPECT_FALSE(native.info.fallbackReason.empty())
                << "silent native fallback";
        }
        expectSameStats(interp.stats, native.stats);
        expectSameOutcomes(interp.outcomes, native.outcomes);
        EXPECT_TRUE(MapSet::equal(interp.maps, native.maps));
    }
}

TEST(AotNative, DisabledBackendFallsBackWithReason)
{
    // Restore the caller's setting afterwards: a sanitizer run sets it
    // for the whole process, and later tests must not load modules.
    const char *prior = std::getenv("EHDL_AOT_DISABLE_NATIVE");
    const std::optional<std::string> saved =
        prior ? std::optional<std::string>(prior) : std::nullopt;
    ASSERT_EQ(setenv("EHDL_AOT_DISABLE_NATIVE", "1", 1), 0);
    const AppSpec spec = apps::makeRouterIpv4();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const std::vector<net::Packet> packets =
        makeWorkload(spec, kShapes[0], 200);
    const EngineRun native =
        runSingle(spec, pipe, packets, SimEngine::Aot, AotBackend::Native);
    if (saved)
        setenv("EHDL_AOT_DISABLE_NATIVE", saved->c_str(), 1);
    else
        unsetenv("EHDL_AOT_DISABLE_NATIVE");

    EXPECT_FALSE(native.info.nativeLoaded);
    EXPECT_EQ(native.info.backend, AotBackend::Portable);
    EXPECT_NE(native.info.fallbackReason.find("EHDL_AOT_DISABLE_NATIVE"),
              std::string::npos)
        << native.info.fallbackReason;

    // And the fallback still conforms.
    const EngineRun interp =
        runSingle(spec, pipe, packets, SimEngine::Interp);
    expectSameStats(interp.stats, native.stats);
    expectSameOutcomes(interp.outcomes, native.outcomes);
}

TEST(AotNative, CacheFileNameCarriesAbiVersion)
{
    // A module built against another ABI must never be found by name:
    // finding one would reject it as stale and pin the process to the
    // fallback for that source.
    const AppSpec spec = apps::makeRouterIpv4();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const aot::NativeLoadResult res =
        aot::loadNativeModule(aot::buildAotSpec(pipe));
    if (!res)
        GTEST_SKIP() << "native backend unavailable: " << res.error;
    const std::string stem =
        "ehdl_aot_v" + std::to_string(aot::kAotAbiVersion) + "_";
    EXPECT_NE(res.module->path().find(stem), std::string::npos)
        << res.module->path();
    EXPECT_EQ(res.module->table().abiVersion, aot::kAotAbiVersion);
}

// --- generated-source golden snapshots --------------------------------

TEST(AotCodegen, GoldenNativeSource)
{
    // Full generated-source snapshots for two evaluation programs,
    // pinned under tests/golden/. Any intentional change to the
    // specializer or code generator shows up as a readable diff;
    // regenerate with EHDL_UPDATE_GOLDEN=1.
    const bool update = std::getenv("EHDL_UPDATE_GOLDEN") != nullptr;
    const AppSpec specs[] = {apps::makeRouterIpv4(),
                             apps::makeSimpleFirewall()};
    for (const AppSpec &spec : specs) {
        const std::string path = std::string(EHDL_GOLDEN_DIR) + "/aot_" +
                                 spec.prog.name + ".cpp.txt";
        const hdl::Pipeline pipe = hdl::compile(spec.prog);
        const std::string text =
            aot::generateNativeSource(aot::buildAotSpec(pipe));
        if (update) {
            std::ofstream out(path);
            ASSERT_TRUE(out.good()) << "cannot write " << path;
            out << text;
            continue;
        }
        std::ifstream in(path);
        ASSERT_TRUE(in.good())
            << "missing golden file " << path
            << " (regenerate with EHDL_UPDATE_GOLDEN=1)";
        std::ostringstream want;
        want << in.rdbuf();
        EXPECT_EQ(text, want.str())
            << spec.prog.name << ": generated source diverged from "
            << path << " (EHDL_UPDATE_GOLDEN=1 regenerates after "
            << "intentional changes)";
    }
}

TEST(AotCodegen, GenerationIsDeterministic)
{
    // The on-disk module cache is keyed by the source hash, so two
    // generations of the same pipeline must be byte-identical — no
    // timestamps, paths, pointer values or iteration-order leaks.
    for (const AppSpec &spec : apps::paperApps()) {
        SCOPED_TRACE(spec.prog.name);
        const hdl::Pipeline pipe = hdl::compile(spec.prog);
        const std::string first =
            aot::generateNativeSource(aot::buildAotSpec(pipe));
        const std::string second =
            aot::generateNativeSource(aot::buildAotSpec(pipe));
        EXPECT_EQ(first, second);
        EXPECT_EQ(aot::sourceHash(first), aot::sourceHash(second));
    }
}

TEST(AotSpec, SegmentStartsCloseOverEntryStages)
{
    // The engine enters native code at an entry stage and walks that
    // entry's burst one segment at a time. The native module holds a
    // function at entry stages only, so every stage that walk lands on
    // must itself be an entry stage: a gap would be a null table entry
    // where ops have to run.
    for (const AppSpec &spec : apps::paperApps()) {
        SCOPED_TRACE(spec.prog.name);
        const hdl::Pipeline pipe = hdl::compile(spec.prog);
        const aot::AotSpec aspec = aot::buildAotSpec(pipe);
        ASSERT_EQ(aspec.entryStage.size(), pipe.numStages());
        for (size_t e = 0; e < pipe.numStages(); ++e) {
            if (!aspec.entryStage[e])
                continue;
            for (size_t k = aspec.stages[e].segEnd + 1;
                 k <= aspec.stages[e].burstEnd;
                 k = aspec.stages[k].segEnd + 1) {
                EXPECT_TRUE(aspec.entryStage[k])
                    << "burst of entry " << e << " continues at " << k;
            }
        }
    }
}

TEST(AotCodegen, EachStageOpEmittedOnce)
{
    // Code size is linear in program size: every instruction the stage
    // ops execute is emitted exactly once, inside the one segment
    // function that covers its stage, and functions exist only at the
    // entry stages whose segment has ops.
    for (const AppSpec &spec : apps::paperApps()) {
        SCOPED_TRACE(spec.prog.name);
        const hdl::Pipeline pipe = hdl::compile(spec.prog);
        const aot::AotSpec aspec = aot::buildAotSpec(pipe);
        const std::string text = aot::generateNativeSource(aspec);

        std::map<size_t, int> emitted_pcs;
        std::vector<size_t> emitted_segs;
        std::istringstream lines(text);
        for (std::string line; std::getline(lines, line);) {
            const size_t at = line.find("// pc ");
            if (at != std::string::npos)
                ++emitted_pcs[std::stoul(line.substr(at + 6))];
            if (line.rfind("seg_", 0) == 0 &&
                line.find("(AotCtx &c)") != std::string::npos)
                emitted_segs.push_back(std::stoul(line.substr(4)));
        }
        std::map<size_t, int> want_pcs;
        for (const hdl::Stage &stage : pipe.stages)
            for (const hdl::StageOp &op : stage.ops) {
                if (op.kind == hdl::OpKind::Branch)
                    want_pcs[op.pcs.front()] = 1;
                else if (op.kind != hdl::OpKind::Jump &&
                         op.kind != hdl::OpKind::Exit)
                    for (size_t pc : op.pcs)
                        want_pcs[pc] = 1;
            }
        EXPECT_EQ(emitted_pcs, want_pcs);

        std::vector<size_t> want_segs;
        for (size_t s = 0; s < pipe.numStages(); ++s) {
            bool any_ops = false;
            for (size_t k = s; k <= aspec.stages[s].segEnd; ++k)
                any_ops = any_ops || !pipe.stages[k].ops.empty();
            if (aspec.entryStage[s] && any_ops)
                want_segs.push_back(s);
        }
        EXPECT_EQ(emitted_segs, want_segs);
    }
}

// --- control-plane hot swap under load --------------------------------

ebpf::Program
makeConstProgram(const std::string &name, int64_t action)
{
    ebpf::ProgramBuilder b(name);
    b.mov(0, action);
    b.exit();
    return b.build();
}

net::Packet
swapPacket(uint64_t id)
{
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    pkt.id = id;
    pkt.arrivalNs = 0;
    return pkt;
}

struct SwapRun
{
    PipeSimStats stats;
    std::vector<PacketOutcome> outcomes;
    uint64_t boundary = 0;
    EngineInfo info;
};

SwapRun
runSwapUnderLoad(SimEngine engine)
{
    const ebpf::Program prog_a = makeConstProgram("always_tx", 3);
    const ebpf::Program prog_b = makeConstProgram("always_drop", 1);
    const hdl::Pipeline pipe_a = hdl::compile(prog_a);
    const hdl::Pipeline pipe_b = hdl::compile(prog_b);

    MapSet maps(prog_a.maps);
    PipeSimConfig sc;
    sc.inputQueueCapacity = 1u << 20;
    sc.engine = engine;
    OutcomeLog log;
    PipeSim sim(pipe_a, maps, sc);
    sim.attachRetireSink(&log);
    const uint64_t n = 500;
    for (uint64_t i = 1; i <= n; ++i)
        EXPECT_TRUE(sim.offer(swapPacket(i)));

    ctl::CtlChannelConfig cc;
    cc.roundTripCycles = 10;
    ctl::CtlSchedule sched;
    ctl::CtlTxn swap;
    swap.cycle = 200;
    swap.kind = ctl::CtlOpKind::SwapProgram;
    swap.program = "b";
    sched.txns.push_back(swap);

    ctl::CtlController ctrl(sim, maps, cc);
    ctrl.addProgram("b", pipe_b);
    const ctl::CtlRunReport report = ctrl.run(sched);
    sim.drain();

    SwapRun out;
    out.stats = sim.stats();
    out.outcomes = std::move(log.outcomes);
    out.boundary = report.txns[0].retiredBefore[0];
    out.info = sim.engineInfo();
    return out;
}

TEST(AotCtl, HotSwapUnderLoadMatchesInterp)
{
    const SwapRun interp = runSwapUnderLoad(SimEngine::Interp);
    const SwapRun aot = runSwapUnderLoad(SimEngine::Aot);

    // Zero loss across the swap under both engines, the same quiescence
    // boundary, and the same per-packet action flip at that boundary.
    EXPECT_EQ(interp.stats.lost, 0u);
    EXPECT_EQ(aot.info.engine, SimEngine::Aot);
    EXPECT_EQ(interp.boundary, aot.boundary);
    expectSameStats(interp.stats, aot.stats);
    expectSameOutcomes(interp.outcomes, aot.outcomes);
    ASSERT_GT(aot.boundary, 0u);
    ASSERT_LT(aot.boundary, aot.outcomes.size());
    for (size_t i = 0; i < aot.outcomes.size(); ++i)
        EXPECT_EQ(aot.outcomes[i].action, i < aot.boundary
                                              ? ebpf::XdpAction::Tx
                                              : ebpf::XdpAction::Drop);
}

TEST(AotCtl, SeededAppSwapMatchesInterp)
{
    // A real app (seeded maps, flush machinery) hot-swapped to a fresh
    // compilation of itself mid-load: the AOT engine must re-specialize
    // on swap and keep bit-identical behaviour throughout.
    const AppSpec spec = apps::makeRouterIpv4();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const hdl::Pipeline pipe_again = hdl::compile(spec.prog);
    const std::vector<net::Packet> packets =
        makeWorkload(spec, kShapes[0], 600);

    const auto run = [&](SimEngine engine) {
        MapSet maps(spec.prog.maps);
        spec.seedMaps(maps);
        PipeSimConfig sc;
        sc.inputQueueCapacity = 1u << 20;
        sc.engine = engine;
        OutcomeLog log;
        PipeSim sim(pipe, maps, sc);
        sim.attachRetireSink(&log);
        for (const net::Packet &pkt : packets)
            EXPECT_TRUE(sim.offer(pkt));
        ctl::CtlChannelConfig cc;
        cc.roundTripCycles = 10;
        ctl::CtlSchedule sched;
        ctl::CtlTxn swap;
        swap.cycle = 100;
        swap.kind = ctl::CtlOpKind::SwapProgram;
        swap.program = "same";
        sched.txns.push_back(swap);
        ctl::CtlController ctrl(sim, maps, cc);
        ctrl.addProgram("same", pipe_again);
        ctrl.run(sched);
        sim.drain();
        EngineRun out;
        out.maps = std::move(maps);
        out.stats = sim.stats();
        out.outcomes = std::move(log.outcomes);
        out.info = sim.engineInfo();
        return out;
    };

    const EngineRun interp = run(SimEngine::Interp);
    const EngineRun aot = run(SimEngine::Aot);
    ASSERT_EQ(interp.stats.completed, packets.size());
    expectSameStats(interp.stats, aot.stats);
    expectSameOutcomes(interp.outcomes, aot.outcomes);
    EXPECT_TRUE(MapSet::equal(interp.maps, aot.maps));
}

}  // namespace
}  // namespace ehdl::sim
