/**
 * @file
 * Microbenchmarks of the tool chain itself, in two parts:
 *
 *  1. A per-phase cycle-cost breakdown of the shared cycle engine: each
 *     evaluation app runs a saturated single-queue workload with
 *     PipeSimConfig::profilePhases enabled, splitting host time into the
 *     six phases of the incremental core (execute / hazard / checkpoint /
 *     commit / advance-retire / flush). Results are mirrored into
 *     BENCH_cycle_phases.json (rows[].phases.*_sec plus share-of-total),
 *     which the CI perf-smoke step uploads next to BENCH_aot.json.
 *     EHDL_BENCH_QUICK=1 shrinks the workload for the CI smoke run.
 *
 *  2. The original google-benchmark microbenchmarks — compiler pass
 *     throughput (the "few seconds" claim of section 6), VM execution
 *     rate, pipeline-simulation rate, and codec speed. Skipped under
 *     EHDL_BENCH_QUICK so the smoke run stays phase-breakdown only.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "common/table.hpp"
#include "ebpf/codec.hpp"
#include "ebpf/vm.hpp"
#include "hdl/compiler.hpp"
#include "hdl/vhdl.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace {

using namespace ehdl;

// --- part 1: per-phase cycle-cost breakdown ----------------------------

struct PhaseRun
{
    sim::PipeSimStats stats;
    sim::PipeSimPhaseProfile phases;
    double cpuSeconds = 0;
    std::string engine;
};

PhaseRun
runProfiled(const apps::AppSpec &spec, const hdl::Pipeline &pipe,
            sim::SimEngine engine, sim::AotBackend backend,
            int num_packets)
{
    ebpf::MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);

    sim::TrafficConfig traffic;
    traffic.numFlows = 10000;
    traffic.packetLen = 64;
    traffic.reverseFraction = spec.reverseFraction;
    traffic.ipProto = spec.ipProto;
    sim::TrafficGen gen(traffic);

    sim::PipeSimConfig config;
    config.inputQueueCapacity = 1u << 22;
    config.engine = engine;
    config.aotBackend = backend;
    config.profilePhases = true;
    sim::PipeSim sim(pipe, maps, config);
    for (int i = 0; i < num_packets; ++i) {
        net::Packet pkt = gen.next();
        pkt.arrivalNs = 0;  // saturating offered load
        sim.offer(std::move(pkt));
    }
    const double t0 = bench::threadCpuSeconds();
    sim.drain();
    PhaseRun out;
    out.cpuSeconds = bench::threadCpuSeconds() - t0;
    out.stats = sim.stats();
    out.phases = sim.phaseProfile();
    out.engine = sim.engineInfo().describe();
    return out;
}

Json
phaseRowJson(const std::string &program, const PhaseRun &run)
{
    const double total =
        run.phases.executeSec + run.phases.hazardSec +
        run.phases.checkpointSec + run.phases.commitSec +
        run.phases.advanceRetireSec + run.phases.flushSec;
    const auto phase = [&](double sec) {
        Json p;
        p.set("sec", Json::num(sec, 6))
            .set("share", Json::num(total > 0 ? sec / total : 0, 4));
        return p;
    };
    Json phases;
    phases.set("execute", phase(run.phases.executeSec))
        .set("hazard", phase(run.phases.hazardSec))
        .set("checkpoint", phase(run.phases.checkpointSec))
        .set("commit", phase(run.phases.commitSec))
        .set("advanceRetire", phase(run.phases.advanceRetireSec))
        .set("flush", phase(run.phases.flushSec));
    Json row;
    row.set("program", Json::str(program))
        .set("engine", Json::str(run.engine))
        .set("sim_cycles", Json::integer(run.stats.cycles))
        .set("cpu_sec", Json::num(run.cpuSeconds, 4))
        .set("mcyc_per_s",
             Json::num(static_cast<double>(run.stats.cycles) /
                           run.cpuSeconds / 1e6,
                       2))
        .set("instrumented_sec", Json::num(total, 4))
        .set("phases", std::move(phases))
        .set("hazardChecks", Json::integer(run.stats.hazardChecks))
        .set("hazardSummarySkips",
             Json::integer(run.stats.hazardSummarySkips))
        .set("commitBatches", Json::integer(run.stats.commitBatches))
        .set("checkpointsTaken",
             Json::integer(run.stats.checkpointsTaken))
        .set("checkpointsMaterialized",
             Json::integer(run.stats.checkpointsMaterialized));
    return row;
}

int
runPhaseBreakdown()
{
    const bool quick = std::getenv("EHDL_BENCH_QUICK") != nullptr;
    const int num_packets = quick ? 20000 : 200000;

    std::printf("cycle-engine phase breakdown "
                "(%d back-to-back 64B packets, 10k flows)%s\n\n",
                num_packets, quick ? " [quick]" : "");
    TextTable table({"Program", "Engine", "Mcyc/s", "exec%", "hazard%",
                     "ckpt%", "commit%", "adv/ret%", "flush%"});

    Json json;
    json.set("bench", Json::str("cycle_phases"));
    json.set("quick", Json::boolean(quick));
    Json rows = Json::array();

    for (bench::NamedApp &app : bench::paperApps()) {
        const hdl::Pipeline pipe = hdl::compile(app.spec.prog);
        const struct
        {
            sim::SimEngine engine;
            sim::AotBackend backend;
        } engines[] = {
            {sim::SimEngine::Interp, sim::AotBackend::Portable},
            {sim::SimEngine::Aot, sim::AotBackend::Native},
        };
        for (const auto &e : engines) {
            const PhaseRun run = runProfiled(app.spec, pipe, e.engine,
                                             e.backend, num_packets);
            const double total =
                run.phases.executeSec + run.phases.hazardSec +
                run.phases.checkpointSec + run.phases.commitSec +
                run.phases.advanceRetireSec + run.phases.flushSec;
            const auto pct = [&](double sec) {
                return fmtF(total > 0 ? 100.0 * sec / total : 0, 1);
            };
            table.addRow(
                {app.name, run.engine,
                 fmtF(static_cast<double>(run.stats.cycles) /
                          run.cpuSeconds / 1e6,
                      1),
                 pct(run.phases.executeSec), pct(run.phases.hazardSec),
                 pct(run.phases.checkpointSec), pct(run.phases.commitSec),
                 pct(run.phases.advanceRetireSec),
                 pct(run.phases.flushSec)});
            rows.push(phaseRowJson(app.name, run));
        }
    }
    std::printf("%s\n", table.render().c_str());
    json.set("rows", std::move(rows));
    return bench::writeBenchJson("cycle_phases", json) ? 0 : 1;
}

// --- part 2: google-benchmark microbenchmarks --------------------------

void
BM_CompileToyPipeline(benchmark::State &state)
{
    const apps::AppSpec spec = apps::makeToyCounter();
    for (auto _ : state)
        benchmark::DoNotOptimize(hdl::compile(spec.prog));
}
BENCHMARK(BM_CompileToyPipeline);

void
BM_CompileDnatPipeline(benchmark::State &state)
{
    const apps::AppSpec spec = apps::makeDnat();
    for (auto _ : state)
        benchmark::DoNotOptimize(hdl::compile(spec.prog));
}
BENCHMARK(BM_CompileDnatPipeline);

void
BM_GenerateVhdl(benchmark::State &state)
{
    const hdl::Pipeline pipe = hdl::compile(apps::makeDnat().prog);
    for (auto _ : state)
        benchmark::DoNotOptimize(hdl::generateVhdl(pipe));
}
BENCHMARK(BM_GenerateVhdl);

void
BM_VmPacket(benchmark::State &state)
{
    const apps::AppSpec spec = apps::makeRouterIpv4();
    ebpf::MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    ebpf::Vm vm(spec.prog, maps);
    sim::TrafficConfig config;
    sim::TrafficGen gen(config);
    net::Packet pkt = gen.next();
    for (auto _ : state) {
        net::Packet copy = pkt;
        benchmark::DoNotOptimize(vm.run(copy));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VmPacket);

void
BM_PipeSimPacket(benchmark::State &state)
{
    const apps::AppSpec spec = apps::makeRouterIpv4();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    ebpf::MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    sim::TrafficConfig config;
    sim::TrafficGen gen(config);
    sim::PipeSimConfig sim_config;
    sim_config.inputQueueCapacity = 1u << 16;
    for (auto _ : state) {
        state.PauseTiming();
        sim::PipeSim sim(pipe, maps, sim_config);
        std::vector<net::Packet> packets;
        for (int i = 0; i < 256; ++i)
            packets.push_back(gen.next());
        state.ResumeTiming();
        for (net::Packet &pkt : packets)
            sim.offer(std::move(pkt));
        sim.drain();
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PipeSimPacket);

void
BM_CodecRoundTrip(benchmark::State &state)
{
    const apps::AppSpec spec = apps::makeDnat();
    for (auto _ : state) {
        const std::vector<uint8_t> wire = ebpf::encode(spec.prog.insns);
        benchmark::DoNotOptimize(ebpf::decode(wire));
    }
}
BENCHMARK(BM_CodecRoundTrip);

}  // namespace

int
main(int argc, char **argv)
{
    const int rc = runPhaseBreakdown();
    if (rc != 0)
        return rc;
    // The quick (CI smoke) configuration stops after the phase
    // breakdown; the full run continues into the microbenchmark suite.
    if (std::getenv("EHDL_BENCH_QUICK") != nullptr)
        return 0;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
