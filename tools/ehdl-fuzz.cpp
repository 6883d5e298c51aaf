/**
 * @file
 * Differential fuzzing driver. Two modes:
 *
 *   ehdl-fuzz [--iters N] [--seed N] ...     run a fuzzing campaign
 *   ehdl-fuzz --replay case.ehdlcase ...     replay saved corpus cases
 *
 * Campaign exit status: 0 when no divergence was found, 1 when at least one
 * was (reproducers are shrunk and optionally written to --corpus DIR).
 * Replay exit status: 0 when every case matches its recorded expectation.
 * The engine flags (--engine, --sched, --paranoid, --stats-out) are shared
 * with ehdlc sim and ehdl-ctl run (sim_flags.hpp).
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/parse_num.hpp"
#include "fuzz/case.hpp"
#include "fuzz/diff.hpp"
#include "fuzz/fuzzer.hpp"
#include "sim/stats_json.hpp"
#include "sim_flags.hpp"

namespace {

using namespace ehdl;

void
usage(std::ostream &os)
{
    os << "usage: ehdl-fuzz [options]\n"
          "       ehdl-fuzz --replay CASE.ehdlcase [CASE...]\n"
          "\n"
          "campaign options:\n"
          "  --iters N          iterations to run (default 1000)\n"
          "  --seed N           campaign seed (default 1)\n"
          "  --packets-min N    min packets per workload (default 24)\n"
          "  --packets-max N    max packets per workload (default 96)\n"
          "  --flows N          max flows per workload (default 6)\n"
          "  --inject-war-bug   compile without WAR delay buffers\n"
          "  --inject-flush-bug compile without flush-evaluation blocks\n"
          "  --ctl              interleave random host control-plane\n"
          "                     schedules (map updates/deletes/lookups at\n"
          "                     random cycles) and cross-check VM vs PipeSim\n"
          "                     vs sharded MultiPipeSim final map state\n"
          "  --ctl-txns N       max transactions per schedule (default 8)\n"
          "  --ctl-replicas N   MultiPipeSim replicas for --ctl cases\n"
          "                     (default 2, below 2 disables that backend)\n"
          "  --host             attach a small-ring host DMA datapath to\n"
          "                     every pipeline backend; the differential\n"
          "                     contract must hold unchanged and drained\n"
          "                     host queues must conserve descriptors\n"
          "                     (consumed + shellDrops == PASS verdicts)\n"
          "  --host-ring N      ring depth of the --host model (default\n"
          "                     16; small keeps backpressure paths hot)\n"
          "  --no-shrink        keep reproducers unreduced\n"
          "  --all              keep fuzzing past the first divergence\n"
          "  --corpus DIR       write shrunk reproducers to DIR\n"
          "  --quiet            suppress progress output\n"
          "\n"
          "The engine flags also apply to --replay; --stats-out writes\n"
          "campaign counters, engine info and aggregated pipeline stats.\n"
          "\n"
       << tools::SimFlags(tools::SimFlagGroups::Engine).help();
}

int
replay(const std::vector<std::string> &paths, const fuzz::RunOptions &run)
{
    int failures = 0;
    for (const std::string &path : paths) {
        const fuzz::FuzzCase c = fuzz::loadCase(path);
        const fuzz::CaseResult r = fuzz::runCase(c, run);
        const bool ok = r.diverged() == c.expectDivergence;
        std::cout << (ok ? "OK   " : "FAIL ") << path << ": "
                  << (r.diverged() ? r.divergence->describe()
                                   : (r.compiled ? "agreement"
                                                 : "rejected: " +
                                                       r.rejectReason))
                  << " (expected "
                  << (c.expectDivergence ? "divergence" : "agreement")
                  << ")\n";
        if (!ok)
            ++failures;
    }
    return failures == 0 ? 0 : 1;
}

int
run(int argc, char **argv)
{
    fuzz::FuzzOptions opts;
    tools::SimFlags flags(tools::SimFlagGroups::Engine);
    std::vector<std::string> replay_paths;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (flags.consume(argc, argv, i)) {
            continue;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg == "--replay") {
            while (i + 1 < argc)
                replay_paths.push_back(argv[++i]);
            if (replay_paths.empty())
                fatal("--replay requires at least one case file");
        } else if (arg == "--iters") {
            opts.iterations = parseNum<uint64_t>("--iters", value());
        } else if (arg == "--seed") {
            opts.seed = parseNum<uint64_t>("--seed", value());
        } else if (arg == "--packets-min") {
            opts.minPackets = parseNum<unsigned>("--packets-min", value());
        } else if (arg == "--packets-max") {
            opts.maxPackets = parseNum<unsigned>("--packets-max", value());
        } else if (arg == "--flows") {
            opts.maxFlows = parseNum<unsigned>("--flows", value());
        } else if (arg == "--inject-war-bug") {
            opts.injectWarBug = true;
        } else if (arg == "--inject-flush-bug") {
            opts.injectFlushBug = true;
        } else if (arg == "--ctl") {
            opts.ctl = true;
        } else if (arg == "--ctl-txns") {
            opts.ctlMaxTxns = parseNum<unsigned>("--ctl-txns", value());
        } else if (arg == "--ctl-replicas") {
            opts.run.ctlReplicas =
                parseNum<unsigned>("--ctl-replicas", value());
        } else if (arg == "--host") {
            opts.run.hostModel = true;
        } else if (arg == "--host-ring") {
            const unsigned depth = parseNum<unsigned>("--host-ring", value());
            if (depth == 0)
                fatal("--host-ring must be at least 1");
            opts.run.hostModel = true;
            opts.run.hostRingDepth = depth;
        } else if (arg == "--no-shrink") {
            opts.shrink = false;
        } else if (arg == "--all") {
            opts.stopAtFirstDivergence = false;
        } else if (arg == "--corpus") {
            const char *dir = value();
            if (!dir)
                fatal("--corpus requires a directory");
            opts.corpusDir = dir;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            usage(std::cerr);
            fatal("unknown option '", arg, "'");
        }
    }
    if (opts.minPackets == 0 || opts.maxPackets < opts.minPackets)
        fatal("--packets-min/--packets-max must satisfy 1 <= min <= max");
    if (opts.maxFlows == 0)
        fatal("--flows must be at least 1");
    if (opts.ctl && opts.ctlMaxTxns == 0)
        fatal("--ctl-txns must be at least 1");
    const sim::PipeSimConfig &engine = flags.multi.pipe;
    opts.run.engine = engine.engine;
    opts.run.aotBackend = engine.aotBackend;
    opts.run.schedMode = engine.schedMode;
    opts.run.paranoidChecks = engine.paranoidChecks;

    if (!replay_paths.empty())
        return replay(replay_paths, opts.run);

    std::ostream *log = quiet ? nullptr : &std::cout;
    const fuzz::FuzzStats stats = fuzz::runFuzz(opts, log);
    std::cout << "ran " << stats.iterations << " iterations: "
              << stats.compiled << " compiled, " << stats.rejected
              << " rejected, " << stats.divergences << " divergences ("
              << stats.packetsRun << " packets, " << stats.vmInsns
              << " vm insns)\n";
    if (!stats.rejectedByPass.empty()) {
        std::cout << "rejections by pass:\n";
        for (const auto &[pass, count] : stats.rejectedByPass)
            std::cout << "  " << pass << ": " << count << "\n";
    }
    for (const fuzz::DivergenceRecord &rec : stats.records) {
        std::cout << "divergence at iteration " << rec.iteration << ": "
                  << rec.divergence.describe() << "\n  shrunk to "
                  << rec.shrunk.prog.insns.size() << " insns / "
                  << rec.shrunk.packets.size() << " packets";
        if (!rec.savedPath.empty())
            std::cout << " -> " << rec.savedPath;
        std::cout << "\n";
    }
    if (!flags.statsOut.empty()) {
        Json root;
        Json campaign;
        campaign.set("iterations", Json::integer(stats.iterations))
            .set("compiled", Json::integer(stats.compiled))
            .set("rejected", Json::integer(stats.rejected))
            .set("divergences", Json::integer(stats.divergences))
            .set("packetsRun", Json::integer(stats.packetsRun))
            .set("vmInsns", Json::integer(stats.vmInsns));
        root.set("campaign", std::move(campaign))
            .set("engine", sim::engineJson(stats.engineInfo))
            .set("pipeStats", sim::statsJson(stats.pipeAgg, engine.clockHz));
        std::ofstream out(flags.statsOut);
        if (!out)
            fatal("cannot write '", flags.statsOut, "'");
        out << root.dump() << "\n";
        if (!quiet)
            std::cout << "stats written to " << flags.statsOut << "\n";
    }
    return stats.divergences == 0 ? 0 : 1;
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
