/**
 * @file
 * Shared helpers for the benchmark binaries: CPU-time clocks for
 * host-side rates and the five evaluation applications under their paper
 * names.
 */

#ifndef EHDL_BENCH_BENCH_COMMON_HPP_
#define EHDL_BENCH_BENCH_COMMON_HPP_

#include <ctime>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "ebpf/maps.hpp"
#include "hdl/compiler.hpp"
#include "sim/nic_shell.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace ehdl::bench {

/**
 * CPU time consumed by this process (all threads), in seconds. Host-side
 * engine rates are reported against CPU time rather than wall clock so
 * the numbers survive noisy shared machines: scheduler preemption
 * inflates wall time but not cycles actually spent simulating.
 */
inline double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** CPU time consumed by the calling thread only, in seconds. */
inline double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** The five evaluation applications, keyed by their paper names. */
struct NamedApp
{
    std::string name;
    apps::AppSpec spec;
};

inline std::vector<NamedApp>
paperApps()
{
    return {
        {"Firewall", apps::makeSimpleFirewall()},
        {"Router", apps::makeRouterIpv4()},
        {"Tunnel", apps::makeTxIpTunnel()},
        {"DNAT", apps::makeDnat()},
        {"Suricata", apps::makeSuricataFilter()},
    };
}

}  // namespace ehdl::bench

#endif  // EHDL_BENCH_BENCH_COMMON_HPP_
