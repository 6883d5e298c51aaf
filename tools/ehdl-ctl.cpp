/**
 * @file
 * Host control-plane driver: runs a scripted `.ctl` schedule (see
 * src/ctl/command.hpp for the format) against a built-in application
 * compiled and running under MultiPipeSim (one replica or more), over
 * the modeled PCIe mailbox channel. The simulator flags are shared with
 * ehdlc sim and ehdl-fuzz (sim_flags.hpp).
 *
 *   ehdl-ctl run SCHEDULE.ctl [options]
 *
 * The workload is generated traffic (line rate, flow count and protocol
 * from the app's suggested parameters unless overridden). The apply log —
 * per-transaction submit/device/complete cycles, per-replica op results
 * and polled stats snapshots — is printed as a table and optionally
 * written to a JSON file for scripts (--stats-out). `--poll-stats N`
 * injects a periodic stats_read every N cycles on top of the schedule,
 * which costs the datapath nothing (stats reads are side-band).
 *
 * `--verify` replays the recorded apply log on the reference VM and
 * compares verdicts, host op results and final map state with the
 * fuzzer's fuzz::compareCtlReplica, exiting 1 on the first divergence;
 * it is available for the single-pipeline and sharded multi-queue
 * backends (shared-map mode has no global sequential packet order).
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <memory>
#include <vector>

#include "apps/apps.hpp"
#include "common/hex.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/parse_num.hpp"
#include "ctl/controller.hpp"
#include "fuzz/diff.hpp"
#include "hdl/compiler.hpp"
#include "host/host_dma.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/stats_json.hpp"
#include "sim/traffic.hpp"
#include "sim_flags.hpp"

namespace {

using namespace ehdl;

/** ehdl-ctl's workload defaults. */
constexpr uint64_t kPackets = 2000, kFlows = 64;

void
usage(std::ostream &os)
{
    os << "usage: ehdl-ctl run SCHEDULE.ctl [options]\n"
          "\n"
          "Runs a host control-plane schedule against a built-in app\n"
          "compiled and simulated under generated line-rate traffic.\n"
          "\n"
          "options:\n"
          "  --app NAME        application (default router_ipv4; accepts\n"
          "                    the app: prefix and ehdlc names)\n"
          "  --swap L=NAME     register app NAME as swap_program target L\n"
          "  --map-mode M      sharded|shared replica maps (default\n"
          "                    sharded; no effect on one replica)\n"
          "  --rate GBPS       line rate in Gbps (default 100)\n"
          "  --rtt N           mailbox round-trip latency, shell cycles\n"
          "                    (default 700 ~= 2.8us at 250MHz)\n"
          "  --inflight N      mailbox in-flight transaction window\n"
          "                    (default 8)\n"
          "  --poll-stats N    add a stats_read every N cycles\n"
          "  --verify          cross-check against the reference VM\n"
          "                    replay (single or sharded backends)\n"
          "  --quiet           suppress the per-transaction table\n"
          "\n"
          "--stats-out writes the apply log and final stats as JSON.\n"
          "\n"
       << tools::SimFlags(tools::SimFlagGroups::EngineAndRun, kPackets, kFlows)
              .help();
}

using sim::statsJson;

Json
reportJson(const ctl::CtlRunReport &report, uint64_t clock_hz)
{
    Json txns = Json::array();
    for (const ctl::CtlTxnRecord &rec : report.txns) {
        Json t;
        t.set("cycle", Json::integer(rec.txn.cycle))
            .set("kind", Json::str(ctl::ctlOpKindName(rec.txn.kind)))
            .set("submitCycle", Json::integer(rec.submitCycle))
            .set("deviceCycle", Json::integer(rec.deviceCycle))
            .set("completeCycle", Json::integer(rec.completeCycle));
        Json applies = Json::array();
        for (const uint64_t c : rec.applyCycle)
            applies.push(Json::integer(c));
        t.set("applyCycle", std::move(applies));
        Json retired = Json::array();
        for (const uint64_t n : rec.retiredBefore)
            retired.push(Json::integer(n));
        t.set("retiredBefore", std::move(retired));
        if (!rec.results.empty()) {
            Json replicas = Json::array();
            for (const auto &ops : rec.results) {
                Json per_op = Json::array();
                for (const ctl::CtlOpResult &r : ops) {
                    Json o;
                    o.set("rc", Json::integer(
                               static_cast<uint64_t>(r.rc < 0 ? -r.rc
                                                              : r.rc)));
                    if (r.rc < 0)
                        o.set("negative", Json::boolean(true));
                    if (r.hit || !r.value.empty()) {
                        o.set("hit", Json::boolean(r.hit));
                        o.set("value", Json::str(toHex(r.value)));
                    }
                    per_op.push(std::move(o));
                }
                replicas.push(std::move(per_op));
            }
            t.set("results", std::move(replicas));
        }
        if (!rec.statsSnapshot.empty()) {
            Json snaps = Json::array();
            for (const sim::PipeSimStats &s : rec.statsSnapshot)
                snaps.push(statsJson(s, clock_hz));
            t.set("stats", std::move(snaps));
        }
        if (!rec.streamSamples.empty()) {
            // The nfbmeter-style timestamped series, one array of
            // samples per replica/queue.
            Json replicas = Json::array();
            for (const auto &series : rec.streamSamples) {
                Json samples = Json::array();
                for (const ctl::CtlStreamSample &s : series) {
                    Json sample;
                    sample.set("cycle", Json::integer(s.cycle))
                        .set("stats", statsJson(s.stats, clock_hz));
                    if (s.hostValid)
                        sample.set("host", host::hostQueueJson(s.host));
                    samples.push(std::move(sample));
                }
                replicas.push(std::move(samples));
            }
            t.set("streamSamples", std::move(replicas));
        }
        txns.push(std::move(t));
    }
    Json j;
    j.set("numReplicas", Json::integer(report.numReplicas))
        .set("txns", std::move(txns));
    return j;
}

struct Options
{
    std::string schedulePath;
    std::string app = "router_ipv4";
    std::vector<std::pair<std::string, std::string>> swaps;
    tools::SimFlags flags{tools::SimFlagGroups::EngineAndRun, kPackets,
                          kFlows};
    double rateGbps = 100.0;
    ctl::CtlChannelConfig channel;
    uint64_t pollStats = 0;
    bool verify = false;
    bool quiet = false;
};

/** Inject a periodic stats_read every @p period cycles over the run. */
void
addStatsPolling(ctl::CtlSchedule &sched, uint64_t period, uint64_t end)
{
    for (uint64_t cycle = period; cycle <= end; cycle += period) {
        ctl::CtlTxn txn;
        txn.cycle = cycle;
        txn.kind = ctl::CtlOpKind::StatsRead;
        sched.txns.push_back(std::move(txn));
    }
    std::stable_sort(sched.txns.begin(), sched.txns.end(),
                     [](const ctl::CtlTxn &a, const ctl::CtlTxn &b) {
                         return a.cycle < b.cycle;
                     });
}

int
run(int argc, char **argv)
{
    Options opt;
    int argi = 1;
    if (argi < argc && std::string(argv[argi]) == "run")
        ++argi;
    for (; argi < argc; ++argi) {
        const std::string arg = argv[argi];
        const auto value = [&]() -> const char * {
            return argi + 1 < argc ? argv[++argi] : nullptr;
        };
        if (opt.flags.consume(argc, argv, argi)) {
            continue;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg == "--app") {
            const char *v = value();
            if (!v)
                fatal("--app requires a value");
            opt.app = v;
        } else if (arg == "--swap") {
            const char *v = value();
            const char *eq = v ? std::strchr(v, '=') : nullptr;
            if (!eq || eq == v || !eq[1])
                fatal("--swap requires LABEL=APP");
            opt.swaps.emplace_back(std::string(v, eq), std::string(eq + 1));
        } else if (arg == "--map-mode") {
            const char *v = value();
            if (v && std::string(v) == "sharded")
                opt.flags.multi.mapMode = sim::MapMode::Sharded;
            else if (v && std::string(v) == "shared")
                opt.flags.multi.mapMode = sim::MapMode::Shared;
            else
                fatal("--map-mode must be sharded or shared");
        } else if (arg == "--rate") {
            opt.rateGbps =
                static_cast<double>(parseNum<uint64_t>("--rate", value()));
        } else if (arg == "--rtt") {
            opt.channel.roundTripCycles =
                parseNum<uint64_t>("--rtt", value());
        } else if (arg == "--inflight") {
            opt.channel.maxInFlight =
                parseNum<unsigned>("--inflight", value());
        } else if (arg == "--poll-stats") {
            opt.pollStats = parseNum<uint64_t>("--poll-stats", value());
        } else if (arg == "--verify") {
            opt.verify = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage(std::cerr);
            fatal("unknown option '", arg, "'");
        } else if (opt.schedulePath.empty()) {
            opt.schedulePath = arg;
        } else {
            fatal("more than one schedule file given");
        }
    }
    if (opt.schedulePath.empty()) {
        usage(std::cerr);
        fatal("a SCHEDULE.ctl file is required");
    }
    const sim::MultiPipeSimConfig config = opt.flags.runConfig();
    if (opt.verify && config.mapMode == sim::MapMode::Shared)
        fatal("--verify is unavailable with --map-mode shared (no global "
              "sequential packet order to replay)");

    // Application + swap targets: compile everything up front.
    const apps::AppSpec spec = apps::appByName(opt.app);
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    std::vector<std::pair<std::string, apps::AppSpec>> swap_specs;
    std::vector<std::pair<std::string, hdl::Pipeline>> swap_pipes;
    for (const auto &[label, ref] : opt.swaps) {
        swap_specs.emplace_back(label, apps::appByName(ref));
        swap_pipes.emplace_back(label,
                                hdl::compile(swap_specs.back().second.prog));
    }

    ctl::CtlSchedule sched = ctl::loadSchedule(opt.schedulePath);

    // Workload: the app's suggested traffic shape at the requested rate.
    sim::TrafficConfig tc = opt.flags.traffic;
    tc.lineRateGbps = opt.rateGbps;
    tc.ipProto = spec.ipProto;
    tc.reverseFraction = spec.reverseFraction;
    tc.seed = 42;
    sim::TrafficGen gen(tc);
    std::vector<net::Packet> packets;
    packets.reserve(opt.flags.packets);
    for (uint64_t i = 0; i < opt.flags.packets; ++i)
        packets.push_back(gen.next());
    if (opt.pollStats > 0) {
        const uint64_t end = gen.nowNs() / 4 + 2000;
        addStatsPolling(sched, opt.pollStats, end);
    }

    // VM-side program registry for --verify swap replay.
    std::map<std::string, const ebpf::Program *> vm_programs;
    for (const auto &[label, s] : swap_specs)
        vm_programs.emplace(label, &s.prog);

    // One MultiPipeSim for every replica count (--verify logs retirements).
    ebpf::MapSet seed(spec.prog.maps);
    spec.seedMaps(seed);
    std::vector<sim::OutcomeLog> logs(opt.verify ? config.numReplicas : 0);
    sim::MultiPipeSim multi(pipe, seed, config);
    const std::unique_ptr<host::HostDatapath> host =
        opt.flags.attachHost(multi);
    for (size_t r = 0; r < logs.size(); ++r)
        multi.replica(r).attachRetireSink(&logs[r]);
    for (const net::Packet &pkt : packets)
        multi.offer(pkt);
    ctl::CtlController ctrl(multi, opt.channel);
    ctrl.attachHost(host.get());
    for (const auto &[label, p] : swap_pipes)
        ctrl.addProgram(label, p);
    const ctl::CtlRunReport report = ctrl.run(sched);
    multi.drain();
    const sim::PipeSimStats final_stats = multi.stats();
    const sim::EngineInfo &engine_info = multi.engineInfo();
    if (opt.verify) {
        std::vector<std::vector<net::Packet>> streams(multi.numReplicas());
        for (const net::Packet &pkt : packets)
            streams[multi.dispatch(pkt)].push_back(pkt);
        for (unsigned r = 0; r < multi.numReplicas(); ++r) {
            ebpf::MapSet vm_maps(spec.prog.maps);
            spec.seedMaps(vm_maps);
            if (const auto d = fuzz::compareCtlReplica(
                    "replica " + std::to_string(r), spec.prog, vm_programs,
                    std::move(vm_maps), streams[r], report, r,
                    logs[r].outcomes, multi.replicaMaps(r))) {
                std::cerr << "verify: " << d->describe() << "\n";
                return 1;
            }
        }
    }

    if (host)
        host->finishAll();

    if (!opt.quiet) {
        std::cout << "app " << spec.prog.name << ", " << config.numReplicas
                  << " replica(s), " << packets.size() << " packets, "
                  << report.txns.size() << " transactions, engine "
                  << engine_info.describe() << "\n";
        if (!engine_info.fallbackReason.empty())
            std::cout << "engine fallback: " << engine_info.fallbackReason
                      << "\n";
        for (const ctl::CtlTxnRecord &rec : report.txns) {
            std::cout << "  @" << rec.txn.cycle << " "
                      << ctl::ctlOpKindName(rec.txn.kind) << ": submit="
                      << rec.submitCycle << " device=" << rec.deviceCycle
                      << " complete=" << rec.completeCycle;
            if (!rec.statsSnapshot.empty())
                std::cout << " completed="
                          << rec.statsSnapshot[0].completed;
            if (!rec.streamSamples.empty())
                std::cout << " samples="
                          << rec.streamSamples[0].size() << "x"
                          << rec.streamSamples.size() << " @"
                          << rec.txn.streamPeriod << "cyc";
            std::cout << "\n";
        }
        std::cout << "final: " << final_stats.completed << " completed, "
                  << final_stats.lost << " lost, " << final_stats.cycles
                  << " cycles, "
                  << final_stats.throughputMpps(config.pipe.clockHz)
                  << " Mpps\n";
        if (host) {
            const host::HostQueueCounters t = host->totals();
            std::cout << "host: " << t.consumed << " consumed, "
                      << t.shellDrops << " shell drops, " << t.interrupts
                      << " IRQs (" << t.countTriggeredIrqs << " count, "
                      << t.timerTriggeredIrqs << " timer)\n";
        }
        if (opt.verify)
            std::cout << "verify: OK (VM replay matches)\n";
    }

    if (!opt.flags.statsOut.empty()) {
        Json root;
        root.set("app", Json::str(spec.prog.name))
            .set("schedule", Json::str(opt.schedulePath));
        root.set("backend", Json::str(config.numReplicas == 1
                                          ? "pipesim"
                                          : "multipipesim"))
            .set("replicas", Json::integer(config.numReplicas))
            .set("mapMode",
                 Json::str(opt.flags.multi.mapMode == sim::MapMode::Sharded
                               ? "sharded"
                               : "shared"))
            .set("threaded", Json::boolean(opt.flags.multi.threaded))
            .set("channel",
                 Json()
                     .set("roundTripCycles",
                          Json::integer(opt.channel.roundTripCycles))
                     .set("maxInFlight",
                          Json::integer(opt.channel.maxInFlight)))
            .set("workload",
                 Json()
                     .set("packets", Json::integer(packets.size()))
                     .set("flows", Json::integer(tc.numFlows))
                     .set("rateGbps", Json::num(opt.rateGbps)))
            .set("engine", sim::engineJson(engine_info))
            .set("finalStats", statsJson(final_stats, config.pipe.clockHz))
            .set("verified", Json::boolean(opt.verify))
            .set("report", reportJson(report, config.pipe.clockHz));
        if (host)
            root.set("host", host::hostDatapathJson(*host));
        std::ofstream out(opt.flags.statsOut);
        if (!out)
            fatal("cannot write '", opt.flags.statsOut, "'");
        out << root.dump() << "\n";
        if (!opt.quiet)
            std::cout << "stats written to " << opt.flags.statsOut << "\n";
    }
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 2;
    } catch (const PanicError &e) {
        std::cerr << "panic: " << e.what() << "\n";
        return 3;
    }
}
