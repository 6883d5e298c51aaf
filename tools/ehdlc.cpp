/**
 * @file
 * ehdlc — the eHDL command-line compiler.
 *
 * Mirrors the paper's tool flow: eBPF in, VHDL out, no hardware expertise
 * required (section 5.5: "eHDL starts from the eBPF bytecode ... and
 * generates the firmware ready to be loaded on the Xilinx U50").
 *
 * Usage:
 *   ehdlc compile <prog> [-o out.vhd] [--frame N] [--no-ilp]
 *                 [--no-fusion] [--no-pruning] [--report[=out.json]]
 *                 [--dump-after=<pass>] [--list-passes]
 *   ehdlc disasm  <prog>
 *   ehdlc verify  <prog>
 *   ehdlc sim     <prog> [--packets N] [--flows N] [--zipf S] [--len N]
 *   ehdlc report  <prog>            # pipeline + resource summary
 *
 * <prog> is a textual assembly file (see ebpf/asm.hpp for the syntax), a
 * raw bytecode file (.bin, 8-byte wire slots), an ELF relocatable
 * object (.o) produced by clang -target bpf, or app:<name> for one of
 * the built-in evaluation applications (app:firewall, app:router, ...).
 *
 * A program the compiler rejects prints *every* verifier/classification
 * diagnostic (not just the first) and exits nonzero. --report=<file>
 * writes the CompileReport JSON — per-pass wall times, diagnostics and
 * pipeline geometry — whether or not compilation succeeded.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "apps/apps.hpp"
#include "common/logging.hpp"
#include "common/parse_num.hpp"
#include "ebpf/asm.hpp"
#include "ebpf/codec.hpp"
#include "ebpf/disasm.hpp"
#include "ebpf/elf.hpp"
#include "ebpf/verifier.hpp"
#include "hdl/compiler.hpp"
#include "hdl/flush_model.hpp"
#include "hdl/resources.hpp"
#include "hdl/vhdl.hpp"
#include "host/host_dma.hpp"
#include "net/headers.hpp"
#include "net/pcap.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/nic_shell.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/stats_json.hpp"
#include "sim/traffic.hpp"

using namespace ehdl;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '", path, "'");
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

/** Resolve an app:<name> reference to a built-in evaluation program. */
ebpf::Program
loadBuiltinApp(const std::string &name)
{
    static const std::pair<const char *, apps::AppSpec (*)()> kApps[] = {
        {"toy", apps::makeToyCounter},
        {"firewall", apps::makeSimpleFirewall},
        {"router", apps::makeRouterIpv4},
        {"tunnel", apps::makeTxIpTunnel},
        {"dnat", apps::makeDnat},
        {"suricata", apps::makeSuricataFilter},
        {"leaky_bucket", apps::makeLeakyBucket},
        {"lb", apps::makeL4LoadBalancer},
        {"monitor", apps::makeMonitorSampler},
    };
    for (const auto &[key, make] : kApps)
        if (name == key)
            return make().prog;
    std::string known;
    for (const auto &[key, make] : kApps)
        known += std::string(known.empty() ? "" : ", ") + key;
    fatal("unknown built-in app '", name, "' (known: ", known, ")");
}

/** Load a program from assembly, raw bytecode, an ELF object or app:. */
ebpf::Program
loadProgram(const std::string &path)
{
    if (path.rfind("app:", 0) == 0)
        return loadBuiltinApp(path.substr(4));
    const std::string body = readFile(path);
    const std::string name = [&path] {
        const size_t slash = path.find_last_of('/');
        const size_t start = slash == std::string::npos ? 0 : slash + 1;
        const size_t dot = path.find_last_of('.');
        return path.substr(start,
                           dot == std::string::npos || dot < start
                               ? std::string::npos
                               : dot - start);
    }();
    if (body.size() >= 4 && std::memcmp(body.data(), "\x7f"
                                                     "ELF",
                                        4) == 0) {
        return ebpf::loadElf(
            std::vector<uint8_t>(body.begin(), body.end()), name);
    }
    if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
        ebpf::Program prog;
        prog.name = name;
        prog.insns =
            ebpf::decode(std::vector<uint8_t>(body.begin(), body.end()));
        return prog;
    }
    return ebpf::assemble(body, name);
}

void
printReport(const hdl::Pipeline &pipe)
{
    const hdl::ResourceReport report = hdl::estimateResources(pipe);
    const hdl::HazardGeometry geo = hdl::hazardGeometry(pipe);
    std::printf("program '%s': %zu instructions, %zu maps\n",
                pipe.prog.name.c_str(), pipe.prog.size(),
                pipe.prog.maps.size());
    std::printf("pipeline: %zu stages (%u framing pads), max ILP %u, "
                "avg ILP %.2f\n",
                pipe.numStages(), pipe.padStages, pipe.schedule.maxIlp,
                pipe.schedule.avgIlp);
    std::printf("hazards: %zu map ports, %zu WAR/speculation buffers, "
                "%zu flush blocks",
                pipe.mapPorts.size(), pipe.warBuffers.size(),
                pipe.flushBlocks.size());
    if (geo.hasFlush)
        std::printf(" (K=%.0f, L=%.0f)", geo.k, geo.l);
    std::printf(", %zu elastic buffers\n", pipe.elasticBuffers.size());
    std::printf("latency at %u MHz: %.0f ns through the pipeline\n",
                pipe.options.clockMhz,
                pipe.numStages() * 1000.0 / pipe.options.clockMhz);
    std::printf("Alveo U50 (incl. Corundum shell): LUT %.2f%%, FF %.2f%%, "
                "BRAM %.2f%%\n",
                report.lutFrac * 100, report.ffFrac * 100,
                report.bramFrac * 100);
}

void
listPasses()
{
    std::printf("compiler passes, in order:\n");
    for (const hdl::Pass &pass : hdl::compilerPasses())
        std::printf("  %-14s %s\n", pass.name, pass.summary);
}

int
cmdCompile(int argc, char **argv)
{
    std::string out_path;
    std::string report_json;
    std::string dump_after;
    bool report = false;
    bool testbench = false;
    hdl::PipelineOptions options;
    std::string input;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-o" && i + 1 < argc)
            out_path = argv[++i];
        else if (arg == "--testbench")
            testbench = true;
        else if (arg == "--frame" && i + 1 < argc)
            options.frameBytes = parseNum<unsigned>("--frame", argv[++i]);
        else if (arg == "--no-ilp")
            options.enableIlp = false;
        else if (arg == "--no-fusion")
            options.enableFusion = false;
        else if (arg == "--no-pruning")
            options.enablePruning = false;
        else if (arg == "--report")
            report = true;
        else if (arg.rfind("--report=", 0) == 0)
            report_json = arg.substr(9);
        else if (arg == "--dump-after" && i + 1 < argc)
            dump_after = argv[++i];
        else if (arg.rfind("--dump-after=", 0) == 0)
            dump_after = arg.substr(13);
        else if (arg == "--list-passes") {
            listPasses();
            return 0;
        } else if (!arg.empty() && arg[0] != '-')
            input = arg;
        else
            fatal("unknown option '", arg, "'");
    }
    if (input.empty())
        fatal("compile: missing input file");
    if (!dump_after.empty() && hdl::findPass(dump_after) == nullptr) {
        std::string names;
        for (const std::string &n : hdl::passNames())
            names += (names.empty() ? "" : ", ") + n;
        fatal("--dump-after: unknown pass '", dump_after, "' (passes: ",
              names, ")");
    }

    const ebpf::Program prog = loadProgram(input);
    hdl::PassObserver observer;
    if (!dump_after.empty()) {
        observer = [&dump_after](const std::string &pass,
                                 const hdl::CompileContext &ctx) {
            if (pass == dump_after)
                std::printf("== after pass '%s' ==\n%s", pass.c_str(),
                            ctx.dump().c_str());
        };
    }
    hdl::CompileResult result =
        hdl::compileWithReport(prog, options, observer);

    if (!report_json.empty()) {
        std::ofstream json_out(report_json, std::ios::binary);
        if (!json_out)
            fatal("cannot write '", report_json, "'");
        json_out << result.report.toJson().dump() << "\n";
        std::printf("wrote compile report to %s\n", report_json.c_str());
    }
    for (const Diagnostic &d : result.report.diags.all()) {
        if (d.severity != Severity::Error)
            std::fprintf(stderr, "ehdlc: %s\n", d.str().c_str());
    }
    if (!result.pipeline) {
        std::fprintf(stderr,
                     "ehdlc: program '%s' failed to compile with %zu "
                     "error(s):\n",
                     prog.name.c_str(),
                     result.report.diags.errorCount());
        for (const Diagnostic &d : result.report.diags.all())
            if (d.severity == Severity::Error)
                std::fprintf(stderr, "  %s\n", d.str().c_str());
        return 1;
    }
    const hdl::Pipeline &pipe = *result.pipeline;
    if (report)
        printReport(pipe);
    const std::string vhdl = hdl::generateVhdl(pipe);
    if (out_path.empty())
        out_path = prog.name + "_pipeline.vhd";
    std::ofstream out(out_path, std::ios::binary);
    if (!out)
        fatal("cannot write '", out_path, "'");
    out << vhdl;
    std::printf("wrote %zu bytes of VHDL to %s\n", vhdl.size(),
                out_path.c_str());
    if (testbench) {
        net::PacketSpec spec;
        const net::Packet pkt = net::PacketFactory::build(spec);
        const std::string tb = hdl::generateTestbench(pipe, pkt.bytes());
        const std::string tb_path = out_path + "_tb.vhd";
        std::ofstream tb_out(tb_path, std::ios::binary);
        if (!tb_out)
            fatal("cannot write '", tb_path, "'");
        tb_out << tb;
        std::printf("wrote %zu bytes of testbench to %s\n", tb.size(),
                    tb_path.c_str());
    }
    return 0;
}

int
cmdDisasm(const std::string &input)
{
    const ebpf::Program prog = loadProgram(input);
    for (const ebpf::MapDef &def : prog.maps)
        std::printf(".map %s %s %u %u %u\n", def.name.c_str(),
                    ebpf::mapKindName(def.kind).c_str(), def.keySize,
                    def.valueSize, def.maxEntries);
    std::printf("%s", ebpf::disasm(prog).c_str());
    return 0;
}

int
cmdVerify(const std::string &input)
{
    const ebpf::Program prog = loadProgram(input);
    const ebpf::VerifyResult vr = ebpf::verify(prog, true);
    if (vr.ok) {
        std::printf("%s: OK (%zu instructions%s)\n", prog.name.c_str(),
                    prog.size(),
                    vr.hasBackwardJumps ? ", has bounded loops" : "");
        return 0;
    }
    std::printf("%s: FAILED\n", prog.name.c_str());
    for (const std::string &error : vr.errors)
        std::printf("  %s\n", error.c_str());
    return 1;
}

/** Report which engine actually runs, including any native fallback. */
void
printEngine(const sim::EngineInfo &info)
{
    std::printf("engine: %s\n", info.describe().c_str());
    if (!info.fallbackReason.empty())
        std::printf("  native backend unavailable: %s\n",
                    info.fallbackReason.c_str());
}

/** Machine-readable stats for `sim --stats-out` (both backends). */
void
writeSimStats(const std::string &path, const std::string &prog_name,
              unsigned replicas, bool threaded, const std::string &sched,
              const sim::EngineInfo &engine, const sim::PipeSimStats &stats,
              uint64_t clock_hz, const sim::PipeSimPhaseProfile &phases,
              const host::HostDatapath *host = nullptr)
{
    Json root;
    root.set("app", Json::str(prog_name))
        .set("replicas", Json::integer(replicas))
        .set("threaded", Json::boolean(threaded))
        .set("sched", Json::str(sched))
        .set("engine", sim::engineJson(engine))
        .set("stats", sim::statsJson(stats, clock_hz));
    if (phases.enabled)
        root.set("phases", sim::phaseProfileJson(phases));
    if (host != nullptr)
        root.set("host", host::hostDatapathJson(*host));
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '", path, "'");
    out << root.dump() << "\n";
    std::printf("stats written to %s\n", path.c_str());
}

/** Human-readable host-datapath summary after the drain. */
void
printHostSummary(const host::HostDatapath &host)
{
    const host::HostQueueCounters t = host.totals();
    std::printf("  host: %llu consumed (%.1f MB), %llu shell drops, "
                "%llu IRQs (%llu count, %llu timer)\n",
                static_cast<unsigned long long>(t.consumed),
                static_cast<double>(t.consumedBytes) / 1e6,
                static_cast<unsigned long long>(t.shellDrops),
                static_cast<unsigned long long>(t.interrupts),
                static_cast<unsigned long long>(t.countTriggeredIrqs),
                static_cast<unsigned long long>(t.timerTriggeredIrqs));
    for (unsigned q = 0; q < host.numQueues(); ++q) {
        const host::HostQueue &hq = host.queue(q);
        std::printf("  host queue %u: %llu consumed, %llu drops, "
                    "ring occupancy p50 %u / p99 %u\n", q,
                    static_cast<unsigned long long>(hq.counters().consumed),
                    static_cast<unsigned long long>(
                        hq.counters().shellDrops),
                    hq.occupancyPercentile(0.50),
                    hq.occupancyPercentile(0.99));
    }
}

/** Parse `--coalesce COUNT[,TIMEOUT]` into @p config. */
void
parseCoalesceSpec(const std::string &spec, host::HostDmaConfig &config)
{
    const size_t comma = spec.find(',');
    config.coalesceCount =
        parseNum<unsigned>("--coalesce", spec.substr(0, comma).c_str());
    if (comma != std::string::npos)
        config.coalesceTimeoutCycles = parseNum<uint64_t>(
            "--coalesce", spec.substr(comma + 1).c_str());
}

int
cmdSim(int argc, char **argv)
{
    std::string input;
    std::string pcap_in, pcap_out;
    std::string stats_out;
    int packets = 10000;
    unsigned replicas = 1;
    bool threaded = false;
    std::string engine_spec = "interp";
    std::string sched_spec = "dense";
    bool paranoid = false;
    bool profile_phases = false;
    bool host_rings = false;
    host::HostDmaConfig host_config;
    sim::TrafficConfig traffic;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--packets" && i + 1 < argc)
            packets = parseNum<int>("--packets", argv[++i]);
        else if (arg == "--host-rings")
            host_rings = true;
        else if (arg == "--ring-depth" && i + 1 < argc) {
            host_rings = true;
            host_config.ringDepth =
                parseNum<unsigned>("--ring-depth", argv[++i]);
        } else if (arg == "--host-rate" && i + 1 < argc) {
            host_rings = true;
            host_config.hostRateMpps = std::stod(argv[++i]);
        } else if (arg == "--coalesce" && i + 1 < argc) {
            host_rings = true;
            parseCoalesceSpec(argv[++i], host_config);
        } else if (arg == "--host-frac" && i + 1 < argc)
            traffic.hostFlowFraction = std::stod(argv[++i]);
        else if (arg == "--engine" && i + 1 < argc)
            engine_spec = argv[++i];
        else if (arg == "--sched" && i + 1 < argc)
            sched_spec = argv[++i];
        else if (arg == "--paranoid")
            paranoid = true;
        else if (arg == "--profile-phases")
            profile_phases = true;
        else if (arg == "--pcap-in" && i + 1 < argc)
            pcap_in = argv[++i];
        else if (arg == "--pcap-out" && i + 1 < argc)
            pcap_out = argv[++i];
        else if (arg == "--stats-out" && i + 1 < argc)
            stats_out = argv[++i];
        else if (arg == "--flows" && i + 1 < argc)
            traffic.numFlows = parseNum<uint64_t>("--flows", argv[++i]);
        else if (arg == "--zipf" && i + 1 < argc)
            traffic.zipfS = std::stod(argv[++i]);
        else if (arg == "--len" && i + 1 < argc)
            traffic.packetLen = parseNum<uint32_t>("--len", argv[++i]);
        else if (arg == "--replicas" && i + 1 < argc)
            replicas = parseNum<unsigned>("--replicas", argv[++i]);
        else if (arg == "--threaded")
            threaded = true;
        else if (!arg.empty() && arg[0] != '-')
            input = arg;
        else
            fatal("unknown option '", arg, "'");
    }
    if (input.empty())
        fatal("sim: missing input file");
    if (replicas == 0)
        fatal("--replicas must be at least 1");
    sim::SchedMode sched_mode = sim::SchedMode::Dense;
    if (!sim::parseSchedSpec(sched_spec, sched_mode))
        fatal("unknown sched mode '", sched_spec, "' (dense, event)");

    const ebpf::Program prog = loadProgram(input);
    const hdl::Pipeline pipe = hdl::compile(prog);
    printReport(pipe);

    if (replicas > 1) {
        // Multi-queue mode: N sharded replicas behind the RSS dispatch.
        ebpf::MapSet maps(prog.maps);
        sim::MultiPipeSimConfig mconfig;
        mconfig.numReplicas = replicas;
        mconfig.threaded = threaded;
        mconfig.pipe.inputQueueCapacity = 1u << 20;
        mconfig.pipe.schedMode = sched_mode;
        mconfig.pipe.paranoidChecks = paranoid;
        mconfig.pipe.profilePhases = profile_phases;
        if (!sim::parseEngineSpec(engine_spec, mconfig.pipe))
            fatal("unknown engine '", engine_spec,
                  "' (interp, aot, aot-native)");
        sim::MultiPipeSim multi(pipe, maps, mconfig);
        printEngine(multi.engineInfo());
        std::unique_ptr<host::HostDatapath> host;
        if (host_rings) {
            host_config.numQueues = replicas;
            host_config.clockHz = mconfig.pipe.clockHz;
            host = std::make_unique<host::HostDatapath>(host_config);
            host->attach(multi);
        }
        if (!pcap_in.empty()) {
            const std::vector<net::Packet> replay = net::readPcap(pcap_in);
            packets = static_cast<int>(replay.size());
            for (const net::Packet &pkt : replay)
                multi.offer(pkt);
        } else {
            sim::TrafficGen gen(traffic);
            for (int i = 0; i < packets; ++i)
                multi.offer(gen.next());
        }
        multi.drain();
        const sim::PipeSimStats agg = multi.stats();
        std::printf("\nsimulated %d packets across %u replicas:\n",
                    packets, replicas);
        std::printf("  modeled aggregate %.1f Mpps over %llu cycles\n",
                    agg.throughputMpps(mconfig.pipe.clockHz),
                    static_cast<unsigned long long>(agg.cycles));
        for (size_t r = 0; r < multi.numReplicas(); ++r) {
            const sim::PipeSimStats &s = multi.replica(r).stats();
            std::printf("  queue %zu: %llu packets, %llu cycles, "
                        "%llu flushes\n",
                        r, static_cast<unsigned long long>(s.completed),
                        static_cast<unsigned long long>(s.cycles),
                        static_cast<unsigned long long>(s.flushEvents));
        }
        if (host) {
            host->finishAll();
            printHostSummary(*host);
        }
        if (!stats_out.empty())
            writeSimStats(stats_out, prog.name, replicas, threaded,
                          sched_spec, multi.engineInfo(), agg,
                          mconfig.pipe.clockHz, multi.phaseProfile(),
                          host.get());
        return 0;
    }

    ebpf::MapSet maps(prog.maps);
    sim::PipeSimConfig config;
    config.inputQueueCapacity = 1u << 20;
    config.schedMode = sched_mode;
    config.paranoidChecks = paranoid;
    config.profilePhases = profile_phases;
    if (!sim::parseEngineSpec(engine_spec, config))
        fatal("unknown engine '", engine_spec,
              "' (interp, aot, aot-native)");
    sim::PipeSim sim(pipe, maps, config);
    printEngine(sim.engineInfo());
    std::unique_ptr<host::HostDatapath> host;
    if (host_rings) {
        host_config.numQueues = 1;
        host_config.clockHz = config.clockHz;
        host = std::make_unique<host::HostDatapath>(host_config);
        host->attach(sim);
    }
    if (!pcap_in.empty()) {
        const std::vector<net::Packet> replay = net::readPcap(pcap_in);
        packets = static_cast<int>(replay.size());
        for (const net::Packet &pkt : replay)
            sim.offer(pkt);
    } else {
        sim::TrafficGen gen(traffic);
        for (int i = 0; i < packets; ++i)
            sim.offer(gen.next());
    }
    sim.drain();
    if (!pcap_out.empty()) {
        // Emit forwarded packets (TX/redirect) as seen on the wire.
        std::vector<net::Packet> emitted;
        for (const sim::PacketOutcome &out : sim.outcomes()) {
            if (out.action == ebpf::XdpAction::Tx ||
                out.action == ebpf::XdpAction::Redirect) {
                net::Packet pkt(out.bytes);
                pkt.arrivalNs = out.exitCycle * 4;
                emitted.push_back(std::move(pkt));
            }
        }
        net::writePcap(pcap_out, emitted);
        std::printf("wrote %zu forwarded packets to %s\n", emitted.size(),
                    pcap_out.c_str());
    }

    uint64_t actions[5] = {};
    for (const sim::PacketOutcome &out : sim.outcomes())
        actions[static_cast<uint32_t>(out.action) % 5]++;
    const sim::EndToEndResult e2e =
        sim::summarizeEndToEnd(sim, traffic.packetLen ? traffic.packetLen
                                                      : 64);
    std::printf("\nsimulated %d packets from %llu flows:\n", packets,
                static_cast<unsigned long long>(traffic.numFlows));
    std::printf("  throughput %.1f Mpps (pipeline %.1f, line rate %.1f)\n",
                e2e.throughputMpps, e2e.pipelineMpps, e2e.lineRateMpps);
    std::printf("  latency %.0f ns end to end\n", e2e.avgLatencyNs);
    std::printf("  flushes %llu, lost %llu\n",
                static_cast<unsigned long long>(e2e.flushEvents),
                static_cast<unsigned long long>(e2e.lostPackets));
    for (uint32_t a = 0; a < 5; ++a) {
        if (actions[a])
            std::printf("  %s: %llu\n",
                        ebpf::xdpActionName(
                            static_cast<ebpf::XdpAction>(a))
                            .c_str(),
                        static_cast<unsigned long long>(actions[a]));
    }
    if (host) {
        host->finishAll();
        printHostSummary(*host);
    }
    if (!stats_out.empty())
        writeSimStats(stats_out, prog.name, 1, false, sched_spec,
                      sim.engineInfo(), sim.stats(), config.clockHz,
                      sim.phaseProfile(), host.get());
    return 0;
}

void
usage()
{
    std::printf(
        "ehdlc — eBPF/XDP to hardware pipeline compiler\n"
        "\n"
        "usage:\n"
        "  ehdlc compile <prog> [-o out.vhd] [--frame N] [--no-ilp]\n"
        "                [--no-fusion] [--no-pruning] [--report[=out.json]]\n"
        "                [--dump-after=<pass>] [--list-passes] [--testbench]\n"
        "  ehdlc disasm  <prog>\n"
        "  ehdlc verify  <prog>\n"
        "  ehdlc report  <prog>\n"
        "  ehdlc sim     <prog> [--packets N] [--flows N] [--zipf S] [--len N]\n"
        "                [--pcap-in f] [--pcap-out f] [--replicas N] [--threaded]\n"
        "                [--engine interp|aot|aot-native] [--sched dense|event]\n"
        "                [--paranoid] [--profile-phases] [--stats-out f]\n"
        "                [--host-rings] [--ring-depth N] [--host-rate MPPS]\n"
        "                [--coalesce COUNT[,TIMEOUT]] [--host-frac F]\n"
        "\n"
        "<prog>: textual assembly (.s), raw bytecode (.bin), an ELF object\n"
        "built with clang -target bpf, or app:<name> for a built-in\n"
        "evaluation program (app:firewall, app:router, app:tunnel,\n"
        "app:dnat, app:suricata, app:toy, ...).\n"
        "\n"
        "compile exits nonzero listing every diagnostic when the program\n"
        "is rejected; --report=<file> writes per-pass timings, diagnostics\n"
        "and pipeline geometry as JSON.\n");
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        usage();
        return argc < 2 ? 0 : 1;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "compile")
            return cmdCompile(argc - 2, argv + 2);
        if (cmd == "disasm")
            return cmdDisasm(argv[2]);
        if (cmd == "verify")
            return cmdVerify(argv[2]);
        if (cmd == "report") {
            printReport(hdl::compile(loadProgram(argv[2])));
            return 0;
        }
        if (cmd == "sim")
            return cmdSim(argc - 2, argv + 2);
        usage();
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ehdlc: %s\n", e.what());
        return 1;
    }
}
