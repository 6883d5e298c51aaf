#include "sim_flags.hpp"

#include <string_view>

#include "common/logging.hpp"
#include "common/parse_num.hpp"

namespace ehdl::tools {

SimFlags::SimFlags(SimFlagGroups groups, uint64_t packets, uint64_t flows)
    : groups(groups), packets(packets)
{
    // Tools offer the whole workload before draining, so the input
    // queue must not drop any of it.
    multi.pipe.inputQueueCapacity = 1u << 20;
    traffic.numFlows = flows;
}

bool
SimFlags::consume(int argc, char **argv, int &i)
{
    const char *flag = argv[i];
    const std::string_view arg = flag;
    const auto value = [&]() -> const char * {
        if (i + 1 >= argc)
            fatal(flag, " requires a value");
        return argv[++i];
    };
    if (arg == "--engine") {
        const char *spec = value();
        if (!sim::parseEngineSpec(spec, multi.pipe))
            fatal("unknown engine '", spec, "' (interp, aot, aot-native)");
    } else if (arg == "--sched") {
        const char *spec = value();
        if (!sim::parseSchedSpec(spec, multi.pipe.schedMode))
            fatal("unknown sched mode '", spec, "' (dense, event)");
    } else if (arg == "--paranoid") {
        multi.pipe.paranoidChecks = true;
    } else if (arg == "--stats-out") {
        statsOut = value();
    } else if (groups != SimFlagGroups::EngineAndRun) {
        return false;
    } else if (arg == "--replicas") {
        multi.numReplicas = parseNum<unsigned>(flag, value());
        if (multi.numReplicas == 0)
            fatal(flag, " must be at least 1");
    } else if (arg == "--threaded") {
        multi.threaded = true;
    } else if (arg == "--packets") {
        packets = parseNum<uint64_t>(flag, value());
    } else if (arg == "--flows") {
        traffic.numFlows = parseNum<uint64_t>(flag, value());
    } else if (arg == "--host-rings") {
        hostRings = true;
    } else if (arg == "--ring-depth") {
        hostRings = true;
        host.ringDepth = parseNum<unsigned>(flag, value());
    } else if (arg == "--host-rate") {
        hostRings = true;
        host.hostRateMpps = parseReal(flag, value());
    } else if (arg == "--coalesce") {
        hostRings = true;
        const std::string_view spec = value();
        const size_t comma = spec.find(',');
        host.coalesceCount = parseNum<unsigned>(
            flag, std::string(spec.substr(0, comma)).c_str());
        if (comma != std::string_view::npos)
            host.coalesceTimeoutCycles = parseNum<uint64_t>(
                flag, std::string(spec.substr(comma + 1)).c_str());
    } else if (arg == "--host-frac") {
        traffic.hostFlowFraction = parseReal(flag, value());
    } else {
        return false;
    }
    return true;
}

std::string
SimFlags::help() const
{
    std::string out =
        "engine flags:\n"
        "  --engine SPEC     stage-execution engine: interp (default), aot,\n"
        "                    aot-native\n"
        "  --sched MODE      cycle scheduling: dense (default) or event\n"
        "                    (bit-identical fast-forward)\n"
        "  --paranoid        cross-check the O(1) hazard summaries against\n"
        "                    the full read scan\n"
        "  --stats-out FILE  write counters and engine info as JSON\n";
    if (groups != SimFlagGroups::EngineAndRun)
        return out;
    out += "\nrun flags:\n"
           "  --replicas N      pipeline replicas behind the RSS dispatch\n"
           "                    (default 1)\n"
           "  --threaded        drain sharded replicas on worker threads\n"
           "  --packets N       workload packets (default " +
           std::to_string(packets) +
           ")\n"
           "  --flows N         workload flows (default " +
           std::to_string(traffic.numFlows) +
           ")\n"
           "  --host-rings      attach the host DMA datapath (RX rings,\n"
           "                    coalescing, host consumer; src/host)\n"
           "  --ring-depth N    host RX ring depth (implies --host-rings)\n"
           "  --host-rate MPPS  host consumer service rate (implies\n"
           "                    --host-rings)\n"
           "  --coalesce C[,T]  completion coalescing: IRQ after C\n"
           "                    completions or T cycles (implies\n"
           "                    --host-rings)\n"
           "  --host-frac F     tag fraction F of workload flows as\n"
           "                    host-destined (PASS-heavy)\n";
    return out;
}

sim::MultiPipeSimConfig
SimFlags::runConfig() const
{
    sim::MultiPipeSimConfig config = multi;
    if (config.numReplicas == 1) {
        config.mapMode = sim::MapMode::Sharded;
        config.threaded = false;
    }
    return config;
}

std::unique_ptr<host::HostDatapath>
SimFlags::attachHost(sim::MultiPipeSim &target) const
{
    if (!hostRings)
        return nullptr;
    host::HostDmaConfig config = host;
    config.numQueues = static_cast<unsigned>(target.numReplicas());
    config.clockHz = target.config().pipe.clockHz;
    auto datapath = std::make_unique<host::HostDatapath>(config);
    datapath->attach(target);
    return datapath;
}

}  // namespace ehdl::tools
