/**
 * @file
 * The paper's evaluation in one binary: Figures 9a-c and 10, Tables 2-5,
 * the text results of sections 5.2-5.4 and the section 2.4 multi-program
 * bundle, one section function each. EXPERIMENTS.md records each
 * section's paper-vs-measured shape. Every printed table is mirrored into
 * BENCH_paper.json as {sections: {key: {title, header, rows[, note]}}}.
 * All of it is modeled output, so the file is deterministic, and
 * bench/baseline/BENCH_paper.json pins it (ctest
 * bench_paper_matches_baseline).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "common/table.hpp"
#include "ebpf/maps.hpp"
#include "hdl/bundle.hpp"
#include "hdl/compiler.hpp"
#include "hdl/flush_model.hpp"
#include "hdl/resources.hpp"
#include "sim/baselines.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/nic_shell.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

using namespace ehdl;

namespace {

/** A paper app compiled once and shared by every section. */
struct PaperApp
{
    std::string name;
    apps::AppSpec spec;
    hdl::Pipeline pipe;
    /** Fixed workload for the processor baseline models. */
    std::vector<net::Packet> workload;
};

/** Modeled pipeline clock in MHz (T, the no-flush packet rate). */
const double kClockMhz =
    static_cast<double>(sim::PipeSimConfig().clockHz) / 1e6;

/** 64B line-rate traffic shaped for @p spec (seed 1). */
sim::TrafficGen
appTraffic(const apps::AppSpec &spec, uint64_t num_flows, double zipf_s = 0)
{
    sim::TrafficConfig traffic;
    traffic.numFlows = num_flows;
    traffic.zipfS = zipf_s;
    traffic.reverseFraction = spec.reverseFraction;
    traffic.ipProto = spec.ipProto;
    return sim::TrafficGen(traffic);
}

PaperApp
makePaperApp(std::string name, apps::AppSpec spec)
{
    hdl::Pipeline pipe = hdl::compile(spec.prog);
    sim::TrafficGen gen = appTraffic(spec, 10000);
    std::vector<net::Packet> workload;
    for (int i = 0; i < 500; ++i)
        workload.push_back(gen.next());
    return {std::move(name), std::move(spec), std::move(pipe),
            std::move(workload)};
}

ebpf::MapSet
seededMaps(const apps::AppSpec &spec)
{
    ebpf::MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    return maps;
}

sim::BaselinePerf
hxdpPerf(const PaperApp &app)
{
    ebpf::MapSet maps = seededMaps(app.spec);
    return sim::HxdpModel(app.spec.prog).measure(app.workload, maps);
}

sim::BaselinePerf
bf2Perf(const PaperApp &app, unsigned cores)
{
    ebpf::MapSet maps = seededMaps(app.spec);
    return sim::Bf2Model(app.spec.prog, cores).measure(app.workload, maps);
}

/** Offer @p num_packets of 64B line-rate traffic and summarize. */
sim::EndToEndResult
runPipeline(const PaperApp &app, uint64_t num_flows, int num_packets,
            double zipf_s = 0)
{
    ebpf::MapSet maps = seededMaps(app.spec);
    sim::TrafficGen gen = appTraffic(app.spec, num_flows, zipf_s);
    sim::PipeSimConfig config;
    config.inputQueueCapacity = 1u << 20;
    sim::PipeSim sim(app.pipe, maps, config);
    for (int i = 0; i < num_packets; ++i)
        sim.offer(gen.next());
    sim.drain();
    return sim::summarizeEndToEnd(sim, 64);
}

/** Print @p title, @p table and @p note; record them under @p key. */
void
emit(Json &sections, const std::string &key, const std::string &title,
     const TextTable &table, const std::string &note = "")
{
    std::printf("%s\n\n%s\n", title.c_str(), table.render().c_str());
    if (!note.empty())
        std::printf("%s\n\n", note.c_str());

    auto strings = [](const std::vector<std::string> &cells) {
        Json out = Json::array();
        for (const std::string &cell : cells)
            out.push(Json::str(cell));
        return out;
    };
    Json rows = Json::array();
    for (const std::vector<std::string> &row : table.rows())
        rows.push(strings(row));
    Json section;
    section.set("title", Json::str(title));
    section.set("header", strings(table.header()));
    section.set("rows", std::move(rows));
    if (!note.empty())
        section.set("note", Json::str(note));
    sections.set(key, std::move(section));
}

/**
 * Figure 9a: forwarding throughput of eHDL vs SDNet, hXDP and
 * BlueField-2 (1 and 4 Arm cores), then the modeled rate of 1, 2 and 4
 * pipeline replicas behind the RSS dispatcher under back-to-back traffic.
 */
void
fig9aThroughput(const std::vector<PaperApp> &paper, Json &sections)
{
    TextTable table({"Program", "eHDL", "SDNet", "hXDP", "Bf2 1c",
                     "Bf2 4c"});
    for (const PaperApp &app : paper) {
        const sim::SdnetModel sdnet(app.spec.prog);
        table.addRow({app.name,
                      fmtF(runPipeline(app, 10000, 30000).throughputMpps, 1),
                      sdnet.supported() ? fmtF(sdnet.mpps(), 1) : "n/a",
                      fmtF(hxdpPerf(app).mpps, 1),
                      fmtF(bf2Perf(app, 1).mpps, 1),
                      fmtF(bf2Perf(app, 4).mpps, 1)});
    }
    emit(sections, "fig9a",
         "Figure 9a: throughput in Mpps "
         "(10k flows, 64B packets, 100 Gbps offered)",
         table,
         "SDNet cannot express the DNAT's dynamic port selection "
         "(paper section 5).");

    const int sweep_packets = 30000;
    TextTable sweep({"Program", "Replicas", "Modeled Mpps", "Scaling"});
    for (const PaperApp &app : paper) {
        double one_replica_mpps = 0;
        for (const unsigned replicas : {1u, 2u, 4u}) {
            ebpf::MapSet maps = seededMaps(app.spec);
            sim::TrafficGen gen = appTraffic(app.spec, 10000);
            sim::MultiPipeSimConfig config;
            config.numReplicas = replicas;
            config.mapMode = sim::MapMode::Sharded;
            config.pipe.inputQueueCapacity = 1u << 20;
            sim::MultiPipeSim multi(app.pipe, maps, config);
            for (int i = 0; i < sweep_packets; ++i) {
                net::Packet pkt = gen.next();
                pkt.arrivalNs = 0;  // saturating offered load
                multi.offer(std::move(pkt));
            }
            multi.drain();
            const double mpps =
                multi.stats().throughputMpps(config.pipe.clockHz);
            if (replicas == 1)
                one_replica_mpps = mpps;
            sweep.addRow({app.name, std::to_string(replicas),
                          fmtF(mpps, 1),
                          fmtF(mpps / one_replica_mpps, 2) + "x"});
        }
    }
    emit(sections, "fig9a_replication",
         "Multi-queue replication sweep (" + std::to_string(sweep_packets) +
             " back-to-back 64B packets, 10k flows, sharded maps)",
         sweep);
}

/** Figure 9b: per-packet forwarding latency of eHDL, hXDP and Bf2. */
void
fig9bLatency(const std::vector<PaperApp> &paper, Json &sections)
{
    TextTable table({"Program", "eHDL (ns)", "hXDP (ns)", "Bf2 (ns)",
                     "eHDL stages"});
    for (const PaperApp &app : paper)
        table.addRow({app.name,
                      fmtF(runPipeline(app, 10000, 5000).avgLatencyNs, 0),
                      fmtF(hxdpPerf(app).latencyNs, 0),
                      fmtF(bf2Perf(app, 1).latencyNs, 0),
                      std::to_string(app.pipe.numStages())});
    emit(sections, "fig9b", "Figure 9b: forwarding latency in nanoseconds",
         table,
         "Bf2 latency is ~10x the FPGA designs and is plotted separately "
         "in the paper for readability.");
}

/** Figure 9c: eHDL stages vs hXDP VLIW and original eBPF instructions. */
void
fig9cStages(const std::vector<PaperApp> &paper, Json &sections)
{
    TextTable table({"Program", "eHDL stages", "hXDP instr.",
                     "Original instr.", "Reduction"});
    for (const PaperApp &app : paper) {
        const double reduction =
            1.0 - static_cast<double>(app.pipe.numStages()) /
                      static_cast<double>(app.spec.prog.size());
        table.addRow(
            {app.name, std::to_string(app.pipe.numStages()),
             std::to_string(
                 sim::HxdpModel(app.spec.prog).vliwInstructionCount()),
             std::to_string(app.spec.prog.size()), fmtPct(reduction, 0)});
    }
    emit(sections, "fig9c",
         "Figure 9c: pipeline stages vs instruction counts", table);
}

/** Figure 10: LUT/FF/BRAM share of the Alveo U50, shell included. */
void
fig10Resources(const std::vector<PaperApp> &paper, Json &sections)
{
    struct Metric
    {
        const char *name;
        const char *key;
        double hdl::ResourceReport::*frac;
        const char *note;
    };
    const hdl::ResourceReport hxdp = sim::HxdpModel::resources();
    for (const Metric &metric :
         {Metric{"LUT", "fig10_lut", &hdl::ResourceReport::lutFrac, ""},
          Metric{"FF", "fig10_ff", &hdl::ResourceReport::ffFrac, ""},
          Metric{"BRAM", "fig10_bram", &hdl::ResourceReport::bramFrac,
                 "hXDP is a fixed processor: identical utilization for "
                 "every program."}}) {
        TextTable table({"Program", "eHDL", "hXDP", "SDNet"});
        for (const PaperApp &app : paper) {
            const sim::SdnetModel sdnet(app.spec.prog);
            table.addRow(
                {app.name,
                 fmtPct(hdl::estimateResources(app.pipe).*metric.frac, 2),
                 fmtPct(hxdp.*metric.frac, 2),
                 sdnet.supported()
                     ? fmtPct(sdnet.resources().*metric.frac, 2)
                     : "n/a"});
        }
        emit(sections, metric.key,
             std::string("Figure 10 (") + metric.name +
                 " fraction of Alveo U50, shell included)",
             table, metric.note);
    }
}

/**
 * Table 2: loss and flushes of the Leaky Bucket replaying CAIDA- and
 * MAWI-like traces at 100 Gbps into a 512-entry FIFO drained in real time.
 */
void
table2Flush(const PaperApp &leaky, Json &sections)
{
    TextTable table({"Trace", "Packets", "Lost", "Flushes", "Flushes/s",
                     "Throughput"});
    for (const sim::TraceProfile &profile :
         {sim::caidaProfile(), sim::mawiProfile()}) {
        ebpf::MapSet maps = seededMaps(leaky.spec);
        sim::TrafficGen gen = sim::makeTraceReplay(profile, 100.0);
        sim::PipeSimConfig config;
        config.inputQueueCapacity = 512;
        const uint64_t cycle_ns = 1'000'000'000 / config.clockHz;
        sim::PipeSim sim(leaky.pipe, maps, config);
        const int packets = 200000;
        for (int i = 0; i < packets; ++i) {
            sim.offer(gen.next());
            // Drain the queue opportunistically like a real MAC would.
            while (sim.stats().cycles * cycle_ns < gen.nowNs())
                sim.step();
        }
        sim.drain();
        const double seconds = static_cast<double>(gen.nowNs()) * 1e-9;
        const double flushes_per_s =
            static_cast<double>(sim.stats().flushEvents) / seconds;
        table.addRow({profile.name, std::to_string(packets),
                      std::to_string(sim.stats().lost),
                      std::to_string(sim.stats().flushEvents),
                      fmtF(flushes_per_s / 1000.0, 0) + "k/s",
                      fmtF(sim.stats().throughputMpps(config.clockHz), 1) +
                          " Mpps"});
    }
    emit(sections, "table2",
         "Table 2: leaky bucket on synthetic trace replays at 100 Gbps\n"
         "(see DESIGN.md: real CAIDA/MAWI captures are substituted by "
         "matched-statistics synthetics)",
         table);
}

/**
 * Table 3 (appendix A.1): analytic throughput T_p for each app's hazard
 * geometry (K stages flushed, L read->write window), 50k Zipfian flows.
 */
void
table3Analytic(const std::vector<PaperApp> &paper, const PaperApp &leaky,
               Json &sections)
{
    TextTable table({"Program", "K", "L", "P_f (Zipf)", "T_p (Mpps)"});
    std::vector<const PaperApp *> rows;
    for (const PaperApp &app : paper)
        rows.push_back(&app);
    rows.push_back(&leaky);
    for (const PaperApp *app : rows) {
        const hdl::Pipeline &pipe = app->pipe;
        const hdl::HazardGeometry geo = hdl::hazardGeometry(pipe);
        if (!geo.hasFlush) {
            table.addRow({app->name, "N/A", "N/A", "N/A",
                          "N/A (atomic or stateless)"});
            continue;
        }
        const double pf = hdl::flushProbabilityZipf(geo.l, 50000);
        const double tp = hdl::pipelineThroughputMpps(kClockMhz, pf, geo.k);
        // Like the paper's DNAT row: when the flush-covered writes are
        // all table insertions (index writes), flushes happen only while
        // a new flow binds, and the steady-state T_p is not meaningful.
        bool new_flow_only = true;
        for (const hdl::FlushBlockPlan &fb : pipe.flushBlocks) {
            for (const hdl::MapPort &port : pipe.mapPorts) {
                if (port.stage == fb.writeStage &&
                    port.mapId == fb.mapId && port.writesValue &&
                    !port.writesIndex)
                    new_flow_only = false;
            }
        }
        table.addRow({app->name, fmtF(geo.k, 0), fmtF(geo.l, 0),
                      fmtPct(pf, 2),
                      new_flow_only ? "N/A (new-flow writes only)"
                                    : fmtF(tp, 0)});
    }
    emit(sections, "table3",
         "Table 3: analytic throughput for K, L per use case "
         "(50k Zipfian flows)",
         table,
         "K includes the " + std::to_string(hdl::kFlushReloadCycles) +
             "-cycle reload overhead. DNAT flushes only when a new flow "
             "binds (paper note).");
}

/** Table 4 (appendix A.1): K_max sustaining 148 Mpps for L = 2..5. */
void
table4Kmax(Json &sections)
{
    TextTable table({"L", "P_f (Zipf)", "K_max"});
    for (unsigned l = 2; l <= 5; ++l) {
        const double pf = hdl::flushProbabilityZipf(l, 50000);
        const double kmax = hdl::maxFlushableStages(kClockMhz, 148.0, pf);
        table.addRow({std::to_string(l), fmtPct(pf, 1), fmtF(kmax, 0)});
    }
    emit(sections, "table4",
         "Table 4: K_max sustaining 148 Mpps vs hazard window L "
         "(50k Zipfian flows, T = " +
             fmtF(kClockMhz, 0) + " Mpps)",
         table);
}

/** Table 5 (appendix A.3): maximum and average ILP per app. */
void
table5Ilp(const std::vector<PaperApp> &paper, Json &sections)
{
    TextTable table({"Program", "max ILP", "avg ILP", "rows", "insns"});
    for (const PaperApp &app : paper)
        table.addRow({app.name, std::to_string(app.pipe.schedule.maxIlp),
                      fmtF(app.pipe.schedule.avgIlp, 2),
                      std::to_string(app.pipe.schedule.totalRows),
                      std::to_string(app.spec.prog.size())});
    emit(sections, "table5",
         "Table 5: instruction-level parallelism per use case", table);
}

/**
 * Section 5.2: modeled wall power (sim/nic_shell.hpp) and the energy per
 * packet at each platform's Router forwarding rate.
 */
void
sec52Energy(const PaperApp &router, Json &sections)
{
    const sim::PowerModel power;
    const double u50 = power.u50SystemW();
    const double bf2 = power.bf2SystemW();
    const double line_rate = sim::NicShellConfig().lineRateMpps(64);

    TextTable table({"Platform", "System power (W)", "Rate (Mpps)",
                     "nJ/packet"});
    auto row = [&table](const char *platform, double watts, double mpps) {
        table.addRow({platform, fmtF(watts, 0), fmtF(mpps, 1),
                      fmtF(watts / mpps, 1)});
    };
    // eHDL / SDNet / hXDP all flash the same board: same wall power.
    row("eHDL (U50)", u50, line_rate);
    row("SDNet (U50)", u50, line_rate);
    row("hXDP (U50)", u50, hxdpPerf(router).mpps);
    row("BlueField-2 (4c)", bf2, bf2Perf(router, 4).mpps);
    emit(sections, "sec52",
         "Section 5.2: modeled system power and energy per packet", table,
         "Paper: 80-85 W for the U50 host (little variation across flashed "
         "designs), 100-105 W for the Bf2 host.");
}

/**
 * Section 5.3: the Leaky Bucket under realistic flow mixes vs the
 * adversarial single flow, where every packet hits one map address.
 */
void
sec53SingleFlow(const PaperApp &leaky, Json &sections)
{
    struct Case
    {
        const char *name;
        uint64_t flows;
        double zipf;
    };
    TextTable table({"Workload", "Flows", "Flushes", "Throughput (Mpps)"});
    for (const Case &c : {Case{"uniform 50k flows", 50000, 0.0},
                          Case{"zipfian 50k flows", 50000, 1.0},
                          Case{"zipfian 1k flows", 1000, 1.0},
                          Case{"single flow (adversarial)", 1, 0.0}}) {
        const sim::EndToEndResult run =
            runPipeline(leaky, c.flows, 40000, c.zipf);
        table.addRow({c.name, std::to_string(c.flows),
                      std::to_string(run.flushEvents),
                      fmtF(run.pipelineMpps, 1)});
    }
    emit(sections, "sec53",
         "Section 5.3: flush impact, realistic flows vs a single flow "
         "(64B packets, line-rate offered)",
         table,
         "Expected shape: throughput at line rate for realistic flow "
         "counts, collapsing by several-fold when every packet shares one "
         "map entry (paper: 29 -> 12 Mpps).");
}

/**
 * Section 5.4: area of the Listing-1 toy pipeline with and without state
 * pruning, shell excluded; the note is its per-stage state summary
 * (section 4.4).
 */
void
sec54Pruning(Json &sections)
{
    const apps::AppSpec toy = apps::makeToyCounter();
    const hdl::Pipeline pipe = hdl::compile(toy.prog);
    const hdl::ResourceReport pruned = hdl::estimateResources(pipe, false);
    const hdl::ResourceReport unpruned = hdl::estimateResources(
        hdl::compile(toy.prog, {.enablePruning = false}), false);

    TextTable table({"Metric", "Pruned", "Unpruned", "Overhead"});
    auto row = [&table](const char *name, double with, double without) {
        table.addRow({name, fmtF(with, 0), fmtF(without, 0),
                      "+" + fmtPct(without / with - 1.0, 0)});
    };
    row("LUTs", pruned.pipeline.luts, unpruned.pipeline.luts);
    row("Flip-flops", pruned.pipeline.ffs, unpruned.pipeline.ffs);
    row("BRAM", pruned.pipeline.brams, unpruned.pipeline.brams);

    unsigned one_reg = 0, stack_stages = 0;
    size_t max_bytes = 0;
    for (const hdl::Stage &stage : pipe.stages) {
        one_reg += stage.numLiveRegs() <= 1 ? 1 : 0;
        stack_stages += stage.liveStack.any() ? 1 : 0;
        max_bytes = std::max<size_t>(
            max_bytes, 64 + 8 * stage.numLiveRegs() +
                           stage.liveStack.count());
    }
    emit(sections, "sec54",
         "Section 5.4: state pruning impact on the toy pipeline "
         "(Corundum excluded)",
         table,
         "Toy pipeline: " + std::to_string(pipe.numStages()) + " stages, " +
             std::to_string(one_reg) + " with <=1 live register, " +
             "stack present in " + std::to_string(stack_stages) +
             " stages, largest stage " + std::to_string(max_bytes) +
             "B of state (paper: 88B)");
}

/**
 * Section 2.4: all five programs behind one Corundum shell, priced with
 * and without state pruning and ILP, then per member.
 */
void
bundleStudy(const std::vector<PaperApp> &paper, Json &sections)
{
    std::vector<ebpf::Program> programs;
    for (const PaperApp &app : paper)
        programs.push_back(app.spec.prog);

    TextTable table({"Configuration", "LUT", "FF", "BRAM", "Fits U50"});
    auto add = [&table](const char *name,
                        const hdl::PipelineBundle &bundle) {
        const hdl::ResourceReport report = bundle.resources();
        table.addRow({name, fmtPct(report.lutFrac, 1),
                      fmtPct(report.ffFrac, 1),
                      fmtPct(report.bramFrac, 1),
                      bundle.fitsDevice() ? "yes" : "NO"});
    };
    const hdl::PipelineBundle bundle = hdl::compileBundle(programs);
    add("5 programs, pruned (default)", bundle);
    add("5 programs, pruning disabled",
        hdl::compileBundle(programs, {.enablePruning = false}));
    add("5 programs, ILP disabled",
        hdl::compileBundle(programs, {.enableIlp = false}));
    emit(sections, "bundle",
         "Multi-program bundle: all five evaluation programs behind one "
         "shell (section 2.4)",
         table);

    TextTable members({"Program", "ifindex", "Stages", "LUTs"});
    for (const hdl::BundleMember &member : bundle.members) {
        const hdl::ResourceReport one =
            hdl::estimateResources(member.pipeline, false);
        members.addRow({member.name, std::to_string(member.ingressIfindex),
                        std::to_string(member.pipeline.numStages()),
                        fmtF(one.pipeline.luts, 0)});
    }
    emit(sections, "bundle_members",
         "Per-member breakdown of the default bundle", members);
}

}  // namespace

int
main()
{
    std::vector<PaperApp> paper;
    for (bench::NamedApp &app : bench::paperApps())
        paper.push_back(makePaperApp(std::move(app.name),
                                     std::move(app.spec)));
    const PaperApp leaky =
        makePaperApp("Leaky_bucket", apps::makeLeakyBucket());

    Json sections;
    fig9aThroughput(paper, sections);
    fig9bLatency(paper, sections);
    fig9cStages(paper, sections);
    fig10Resources(paper, sections);
    table2Flush(leaky, sections);
    table3Analytic(paper, leaky, sections);
    table4Kmax(sections);
    table5Ilp(paper, sections);
    sec52Energy(paper[1] /* Router */, sections);
    sec53SingleFlow(leaky, sections);
    sec54Pruning(sections);
    bundleStudy(paper, sections);

    Json json;
    json.set("bench", Json::str("paper"));
    json.set("sections", std::move(sections));
    return bench::writeBenchJson("paper", json) ? 0 : 1;
}
