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
 *   ehdlc sim     <prog> [--zipf S] [--len N] [--pcap-in f] [--pcap-out f]
 *                 [--profile-phases] [engine and run flags]
 *   ehdlc report  <prog>            # pipeline + resource summary
 *
 * <prog> is a textual assembly file (see ebpf/asm.hpp for the syntax), a
 * raw bytecode file (.bin, 8-byte wire slots), an ELF relocatable
 * object (.o) produced by clang -target bpf, or app:<name> for one of
 * the built-in evaluation applications (app:firewall, app:router, ...).
 * Every command takes `--section NAME` to load the named program section
 * of an ELF object (default: the first non-empty executable section).
 *
 * A program the compiler rejects prints *every* verifier/classification
 * diagnostic (not just the first) and exits nonzero. --report=<file>
 * writes the CompileReport JSON — per-pass wall times, diagnostics and
 * pipeline geometry — whether or not compilation succeeded.
 *
 * The engine and run flags of `sim` are shared with ehdl-ctl and
 * ehdl-fuzz (sim_flags.hpp); `sim` runs one MultiPipeSim for every
 * replica count.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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
#include "sim/stats_json.hpp"
#include "sim/traffic.hpp"
#include "sim_flags.hpp"

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

/**
 * Load a program from assembly, raw bytecode, an ELF object or app:.
 * A non-empty @p section names the ELF program section to load.
 */
ebpf::Program
loadProgram(const std::string &path, const std::string &section)
{
    const bool is_app = path.rfind("app:", 0) == 0;
    const std::string body = is_app ? "" : readFile(path);
    const bool is_elf =
        body.size() >= 4 && std::memcmp(body.data(), "\x7f"
                                                     "ELF",
                                        4) == 0;
    if (!section.empty() && !is_elf)
        fatal("--section applies only to ELF objects, not '", path, "'");
    if (is_app)
        return apps::appByName(path).prog;
    const std::string name = [&path] {
        const size_t slash = path.find_last_of('/');
        const size_t start = slash == std::string::npos ? 0 : slash + 1;
        const size_t dot = path.find_last_of('.');
        return path.substr(start,
                           dot == std::string::npos || dot < start
                               ? std::string::npos
                               : dot - start);
    }();
    if (is_elf) {
        return ebpf::loadElf(
            std::vector<uint8_t>(body.begin(), body.end()), name, section);
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
cmdCompile(int argc, char **argv, const std::string &section)
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

    const ebpf::Program prog = loadProgram(input, section);
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
cmdDisasm(const std::string &input, const std::string &section)
{
    const ebpf::Program prog = loadProgram(input, section);
    for (const ebpf::MapDef &def : prog.maps)
        std::printf(".map %s %s %u %u %u\n", def.name.c_str(),
                    ebpf::mapKindName(def.kind).c_str(), def.keySize,
                    def.valueSize, def.maxEntries);
    std::printf("%s", ebpf::disasm(prog).c_str());
    return 0;
}

int
cmdVerify(const std::string &input, const std::string &section)
{
    const ebpf::Program prog = loadProgram(input, section);
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

/** Machine-readable stats for `sim --stats-out`. */
void
writeSimStats(const std::string &path, const std::string &prog_name,
              const sim::MultiPipeSim &multi, const host::HostDatapath *host)
{
    const sim::MultiPipeSimConfig &config = multi.config();
    const bool event = config.pipe.schedMode == sim::SchedMode::EventDriven;
    Json root;
    root.set("app", Json::str(prog_name))
        .set("replicas", Json::integer(config.numReplicas))
        .set("threaded", Json::boolean(config.threaded))
        .set("sched", Json::str(event ? "event" : "dense"))
        .set("engine", sim::engineJson(multi.engineInfo()))
        .set("stats", sim::statsJson(multi.stats(), config.pipe.clockHz));
    const sim::PipeSimPhaseProfile phases = multi.phaseProfile();
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

/** ehdlc sim's workload default. */
constexpr uint64_t kSimPackets = 10000;

int
cmdSim(int argc, char **argv, const std::string &section)
{
    std::string input;
    std::string pcap_in, pcap_out;
    tools::SimFlags flags(tools::SimFlagGroups::EngineAndRun, kSimPackets);
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (flags.consume(argc, argv, i))
            continue;
        if (arg == "--profile-phases")
            flags.multi.pipe.profilePhases = true;
        else if (arg == "--pcap-in" && i + 1 < argc)
            pcap_in = argv[++i];
        else if (arg == "--pcap-out" && i + 1 < argc)
            pcap_out = argv[++i];
        else if (arg == "--zipf" && i + 1 < argc)
            flags.traffic.zipfS = parseReal("--zipf", argv[++i]);
        else if (arg == "--len" && i + 1 < argc)
            flags.traffic.packetLen = parseNum<uint32_t>("--len", argv[++i]);
        else if (!arg.empty() && arg[0] != '-')
            input = arg;
        else
            fatal("unknown option '", arg, "'");
    }
    if (input.empty())
        fatal("sim: missing input file");

    const ebpf::Program prog = loadProgram(input, section);
    const hdl::Pipeline pipe = hdl::compile(prog);
    printReport(pipe);

    // One MultiPipeSim for every replica count: N replicas behind the
    // RSS dispatch, each with its own map shard.
    ebpf::MapSet maps(prog.maps);
    const sim::MultiPipeSimConfig config = flags.runConfig();
    // --pcap-out: one log per replica (threaded replicas retire apart).
    std::vector<sim::OutcomeLog> logs(pcap_out.empty() ? 0
                                                       : config.numReplicas);
    sim::MultiPipeSim multi(pipe, maps, config);
    for (size_t r = 0; r < logs.size(); ++r)
        multi.replica(r).attachRetireSink(&logs[r]);
    const sim::EngineInfo &engine = multi.engineInfo();
    std::printf("engine: %s\n", engine.describe().c_str());
    if (!engine.fallbackReason.empty())
        std::printf("  native backend unavailable: %s\n",
                    engine.fallbackReason.c_str());
    const std::unique_ptr<host::HostDatapath> host = flags.attachHost(multi);
    uint64_t packets = flags.packets;
    if (!pcap_in.empty()) {
        const std::vector<net::Packet> replay = net::readPcap(pcap_in);
        packets = replay.size();
        for (const net::Packet &pkt : replay)
            multi.offer(pkt);
    } else {
        sim::TrafficGen gen(flags.traffic);
        for (uint64_t i = 0; i < packets; ++i)
            multi.offer(gen.next());
    }
    multi.drain();
    if (!pcap_out.empty()) {
        // Emit forwarded packets (TX/redirect) as seen on the wire.
        std::vector<net::Packet> emitted;
        for (const sim::OutcomeLog &log : logs) {
            for (const sim::PacketOutcome &out : log.outcomes) {
                if (out.action == ebpf::XdpAction::Tx ||
                    out.action == ebpf::XdpAction::Redirect) {
                    net::Packet pkt(out.bytes);
                    pkt.id = out.id;
                    pkt.arrivalNs = out.exitCycle * 4;
                    emitted.push_back(std::move(pkt));
                }
            }
        }
        // Replicas retire concurrently: order the capture by wire time,
        // then packet id.
        std::stable_sort(emitted.begin(), emitted.end(),
                         [](const net::Packet &a, const net::Packet &b) {
                             return a.arrivalNs != b.arrivalNs
                                        ? a.arrivalNs < b.arrivalNs
                                        : a.id < b.id;
                         });
        net::writePcap(pcap_out, emitted);
        std::printf("wrote %zu forwarded packets to %s\n", emitted.size(),
                    pcap_out.c_str());
    }

    const sim::PipeSimStats stats = multi.stats();
    if (multi.numReplicas() == 1) {
        const uint32_t len = flags.traffic.packetLen;
        const sim::EndToEndResult e2e =
            sim::summarizeEndToEnd(multi.replica(0), len ? len : 64);
        std::printf("\nsimulated %llu packets from %llu flows:\n",
                    static_cast<unsigned long long>(packets),
                    static_cast<unsigned long long>(flags.traffic.numFlows));
        std::printf("  throughput %.1f Mpps (pipeline %.1f, line rate "
                    "%.1f)\n",
                    e2e.throughputMpps, e2e.pipelineMpps, e2e.lineRateMpps);
        std::printf("  latency %.0f ns end to end\n", e2e.avgLatencyNs);
        std::printf("  flushes %llu, lost %llu\n",
                    static_cast<unsigned long long>(e2e.flushEvents),
                    static_cast<unsigned long long>(e2e.lostPackets));
    } else {
        std::printf("\nsimulated %llu packets across %zu replicas:\n",
                    static_cast<unsigned long long>(packets),
                    multi.numReplicas());
        std::printf("  modeled aggregate %.1f Mpps over %llu cycles\n",
                    stats.throughputMpps(config.pipe.clockHz),
                    static_cast<unsigned long long>(stats.cycles));
        for (size_t r = 0; r < multi.numReplicas(); ++r) {
            const sim::PipeSimStats &s = multi.replica(r).stats();
            std::printf("  queue %zu: %llu packets, %llu cycles, "
                        "%llu flushes\n",
                        r, static_cast<unsigned long long>(s.completed),
                        static_cast<unsigned long long>(s.cycles),
                        static_cast<unsigned long long>(s.flushEvents));
        }
    }
    // Indexed by XdpAction (aborted, drop, pass, tx, redirect).
    const uint64_t verdicts[] = {stats.abortedPackets, stats.dropPackets,
                                 stats.passPackets, stats.txPackets,
                                 stats.redirectPackets};
    for (uint32_t a = 0; a < 5; ++a) {
        if (verdicts[a])
            std::printf("  %s: %llu\n",
                        ebpf::xdpActionName(static_cast<ebpf::XdpAction>(a))
                            .c_str(),
                        static_cast<unsigned long long>(verdicts[a]));
    }
    if (host) {
        host->finishAll();
        printHostSummary(*host);
    }
    if (!flags.statsOut.empty())
        writeSimStats(flags.statsOut, prog.name, multi, host.get());
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
        "  ehdlc sim     <prog> [--zipf S] [--len N] [--pcap-in f]\n"
        "                [--pcap-out f] [--profile-phases] [engine flags]\n"
        "                [run flags]\n"
        "\n"
        "<prog>: textual assembly (.s), raw bytecode (.bin), an ELF object\n"
        "built with clang -target bpf, or app:<name> for a built-in\n"
        "evaluation program (app:firewall, app:router, app:tunnel,\n"
        "app:dnat, app:suricata, app:toy, ...). Every command takes\n"
        "--section NAME to load that program section of an ELF object\n"
        "(default: the first non-empty executable section).\n"
        "\n"
        "compile exits nonzero listing every diagnostic when the program\n"
        "is rejected; --report=<file> writes per-pass timings, diagnostics\n"
        "and pipeline geometry as JSON.\n"
        "\n"
        "%s",
        tools::SimFlags(tools::SimFlagGroups::EngineAndRun, kSimPackets)
            .help()
            .c_str());
}

}  // namespace

int
main(int argc, char **argv)
{
    // --section applies to every command's input, so it is taken out
    // of the argument list before dispatch.
    std::string section;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--section") == 0 && i + 1 < argc)
            section = argv[++i];
        else
            args.push_back(argv[i]);
    }
    argc = static_cast<int>(args.size());
    argv = args.data();
    if (argc < 3) {
        usage();
        return argc < 2 ? 0 : 1;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "compile")
            return cmdCompile(argc - 2, argv + 2, section);
        if (cmd == "disasm")
            return cmdDisasm(argv[2], section);
        if (cmd == "verify")
            return cmdVerify(argv[2], section);
        if (cmd == "report") {
            printReport(hdl::compile(loadProgram(argv[2], section)));
            return 0;
        }
        if (cmd == "sim")
            return cmdSim(argc - 2, argv + 2, section);
        usage();
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ehdlc: %s\n", e.what());
        return 1;
    }
}
