/**
 * @file
 * The simulator flags shared by ehdlc sim, ehdl-ctl run and ehdl-fuzz:
 * which group takes which flag, what each fills in, the one error
 * wording per failure, and the one-replica run configuration.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hpp"
#include "sim_flags.hpp"

namespace {

using namespace ehdl;
using tools::SimFlagGroups;
using tools::SimFlags;

/**
 * Feed @p args through consume() the way a tool's loop does. Returns the
 * arguments it did not take.
 */
std::vector<std::string>
feed(SimFlags &flags, std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    std::vector<std::string> rest;
    const int argc = static_cast<int>(argv.size());
    for (int i = 0; i < argc; ++i)
        if (!flags.consume(argc, argv.data(), i))
            rest.push_back(argv[i]);
    return rest;
}

/** The FatalError message of feeding @p args, or "" if none. */
std::string
errorOf(SimFlagGroups groups, std::vector<std::string> args)
{
    SimFlags flags(groups);
    try {
        feed(flags, std::move(args));
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(SimFlags, EngineGroupFillsThePipeConfig)
{
    SimFlags flags(SimFlagGroups::Engine);
    const std::vector<std::string> rest =
        feed(flags, {"--engine", "aot-native", "--sched", "event",
                     "--paranoid", "--stats-out", "s.json", "--iters", "9"});
    EXPECT_EQ(rest, (std::vector<std::string>{"--iters", "9"}));
    EXPECT_EQ(flags.multi.pipe.engine, sim::SimEngine::Aot);
    EXPECT_EQ(flags.multi.pipe.aotBackend, sim::AotBackend::Native);
    EXPECT_EQ(flags.multi.pipe.schedMode, sim::SchedMode::EventDriven);
    EXPECT_TRUE(flags.multi.pipe.paranoidChecks);
    EXPECT_EQ(flags.statsOut, "s.json");
}

TEST(SimFlags, EngineGroupLeavesRunFlagsToTheTool)
{
    // ehdl-fuzz has its own --flows (max flows per case).
    SimFlags flags(SimFlagGroups::Engine);
    const std::vector<std::string> args = {"--flows", "6", "--replicas", "2",
                                           "--host-rate", "1"};
    EXPECT_EQ(feed(flags, args), args);
}

TEST(SimFlags, RunGroupFillsSimTrafficAndHostConfigs)
{
    SimFlags flags(SimFlagGroups::EngineAndRun);
    const std::vector<std::string> rest = feed(
        flags, {"--replicas", "4", "--threaded", "--packets", "123",
                "--flows", "7", "--ring-depth", "32", "--host-rate", "1.5",
                "--coalesce", "16,512", "--host-frac", "0.4", "--zipf", "1"});
    EXPECT_EQ(rest, (std::vector<std::string>{"--zipf", "1"}));
    EXPECT_EQ(flags.multi.numReplicas, 4u);
    EXPECT_TRUE(flags.multi.threaded);
    EXPECT_EQ(flags.packets, 123u);
    EXPECT_EQ(flags.traffic.numFlows, 7u);
    EXPECT_DOUBLE_EQ(flags.traffic.hostFlowFraction, 0.4);
    EXPECT_TRUE(flags.hostRings);
    EXPECT_EQ(flags.host.ringDepth, 32u);
    EXPECT_DOUBLE_EQ(flags.host.hostRateMpps, 1.5);
    EXPECT_EQ(flags.host.coalesceCount, 16u);
    EXPECT_EQ(flags.host.coalesceTimeoutCycles, 512u);
    EXPECT_EQ(flags.multi.pipe.inputQueueCapacity, 1u << 20);
}

TEST(SimFlags, HostFlagsImplyHostRingsButHostFracDoesNot)
{
    for (const std::vector<std::string> &args :
         std::vector<std::vector<std::string>>{{"--host-rings"},
                                               {"--ring-depth", "8"},
                                               {"--host-rate", "2"},
                                               {"--coalesce", "4"}}) {
        SimFlags flags(SimFlagGroups::EngineAndRun);
        feed(flags, args);
        EXPECT_TRUE(flags.hostRings) << args[0];
    }
    SimFlags flags(SimFlagGroups::EngineAndRun);
    feed(flags, {"--host-frac", "0.5", "--coalesce", "4"});
    EXPECT_EQ(flags.host.coalesceTimeoutCycles,
              host::HostDmaConfig{}.coalesceTimeoutCycles);
    SimFlags frac_only(SimFlagGroups::EngineAndRun);
    feed(frac_only, {"--host-frac", "0.5"});
    EXPECT_FALSE(frac_only.hostRings);
}

TEST(SimFlags, OneErrorWordingPerFailure)
{
    const auto has = [](const std::string &msg, const char *want) {
        return msg.find(want) != std::string::npos;
    };
    for (const SimFlagGroups g :
         {SimFlagGroups::Engine, SimFlagGroups::EngineAndRun}) {
        EXPECT_TRUE(has(errorOf(g, {"--sched", "bogus"}),
                        "unknown sched mode 'bogus' (dense, event)"));
        EXPECT_TRUE(has(errorOf(g, {"--engine", "jit"}),
                        "unknown engine 'jit' (interp, aot, aot-native)"));
        EXPECT_TRUE(has(errorOf(g, {"--stats-out"}),
                        "--stats-out requires a value"));
    }
    const SimFlagGroups run = SimFlagGroups::EngineAndRun;
    EXPECT_TRUE(has(errorOf(run, {"--replicas", "0"}),
                    "--replicas must be at least 1"));
    EXPECT_TRUE(has(errorOf(run, {"--replicas", "-1"}),
                    "--replicas: expected a number"));
    EXPECT_TRUE(has(errorOf(run, {"--packets", "abc"}),
                    "--packets: expected a number"));
    EXPECT_TRUE(has(errorOf(run, {"--host-rate", "1x"}),
                    "--host-rate: expected a non-negative number"));
    EXPECT_TRUE(has(errorOf(run, {"--host-frac", "-0.5"}),
                    "--host-frac: expected a non-negative number"));
    EXPECT_TRUE(has(errorOf(run, {"--coalesce", "8,x"}),
                    "--coalesce: expected a number"));
    EXPECT_TRUE(has(errorOf(run, {"--ring-depth"}),
                    "--ring-depth requires a value"));
}

TEST(SimFlags, OneReplicaRunsShardedAndSequential)
{
    // Map mode and threading mean nothing to one replica, so the
    // combination MultiPipeSim rejects for N > 1 (shared maps with event
    // scheduling or threads) still runs on one.
    SimFlags flags(SimFlagGroups::EngineAndRun);
    feed(flags, {"--sched", "event", "--threaded"});
    flags.multi.mapMode = sim::MapMode::Shared;
    const sim::MultiPipeSimConfig one = flags.runConfig();
    EXPECT_EQ(one.mapMode, sim::MapMode::Sharded);
    EXPECT_FALSE(one.threaded);
    EXPECT_EQ(one.pipe.schedMode, sim::SchedMode::EventDriven);

    feed(flags, {"--replicas", "2"});
    const sim::MultiPipeSimConfig two = flags.runConfig();
    EXPECT_EQ(two.mapMode, sim::MapMode::Shared);
    EXPECT_TRUE(two.threaded);
}

TEST(SimFlags, HelpListsEachAcceptedGroupWithDefaults)
{
    const char *engine_flags[] = {"--engine", "--sched", "--paranoid",
                                  "--stats-out"};
    const char *run_flags[] = {"--replicas", "--threaded", "--packets",
                               "--flows", "--host-rings", "--ring-depth",
                               "--host-rate", "--coalesce", "--host-frac"};
    const std::string engine_help = SimFlags(SimFlagGroups::Engine).help();
    SimFlags both(SimFlagGroups::EngineAndRun);
    both.packets = 2000;
    const std::string run_help = both.help();
    for (const char *f : engine_flags) {
        EXPECT_NE(engine_help.find(f), std::string::npos) << f;
        EXPECT_NE(run_help.find(f), std::string::npos) << f;
    }
    for (const char *f : run_flags) {
        EXPECT_EQ(engine_help.find(f), std::string::npos) << f;
        EXPECT_NE(run_help.find(f), std::string::npos) << f;
    }
    EXPECT_NE(run_help.find("(default 2000)"), std::string::npos) << run_help;
}

}  // namespace
