/**
 * @file
 * The simulator flags shared by `ehdlc sim`, `ehdl-ctl run` and
 * `ehdl-fuzz`, parsed, checked and documented in one place.
 *
 *  - Engine group (all three tools): --engine, --sched, --paranoid,
 *    --stats-out.
 *  - Run group (`ehdlc sim`, `ehdl-ctl run`): --replicas, --threaded,
 *    --packets, --flows, --host-rings, --ring-depth, --host-rate,
 *    --coalesce, --host-frac. It configures one MultiPipeSim for every
 *    replica count, one replica included.
 *
 * A tool passes every argument to consume() first and parses only its
 * own flags itself.
 */

#ifndef EHDL_TOOLS_SIM_FLAGS_HPP_
#define EHDL_TOOLS_SIM_FLAGS_HPP_

#include <cstdint>
#include <memory>
#include <string>

#include "host/host_dma.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace ehdl::tools {

/** Which flag groups a tool accepts. */
enum class SimFlagGroups : uint8_t { Engine, EngineAndRun };

struct SimFlags
{
    /** @p packets and @p flows are the tool's workload defaults. */
    explicit SimFlags(SimFlagGroups groups, uint64_t packets = 0,
                      uint64_t flows = sim::TrafficConfig{}.numFlows);

    /**
     * If argv[i] is a flag of an accepted group, parse it and its value
     * (advancing @p i past the value) and return true; otherwise return
     * false. fatal() naming the flag on a missing or malformed value.
     */
    bool consume(int argc, char **argv, int &i);

    /** Help text, one block per accepted group. */
    std::string help() const;

    /**
     * The configuration to run. Map mode and threading mean nothing to
     * one replica, so one replica always runs sharded and sequential.
     */
    sim::MultiPipeSimConfig runConfig() const;

    /** The host datapath attached to @p target, or null without one. */
    std::unique_ptr<host::HostDatapath>
    attachHost(sim::MultiPipeSim &target) const;

    SimFlagGroups groups;
    /** --engine, --sched, --paranoid fill pipe; --replicas, --threaded. */
    sim::MultiPipeSimConfig multi;
    std::string statsOut;
    uint64_t packets;
    /** --flows and --host-frac. */
    sim::TrafficConfig traffic;
    /** Set by --host-rings and implied by the other host flags. */
    bool hostRings = false;
    host::HostDmaConfig host;
};

}  // namespace ehdl::tools

#endif  // EHDL_TOOLS_SIM_FLAGS_HPP_
