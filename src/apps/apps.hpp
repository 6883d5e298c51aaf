/**
 * @file
 * The evaluation applications (paper table 1) plus the Listing-1 toy
 * example and the Leaky Bucket used in section 5.3, each expressed as real
 * eBPF bytecode over the substrate in src/ebpf.
 *
 * Byte-order conventions (documented per app in apps.cpp): packet loads
 * are little-endian reads of big-endian wire data, exactly as compiled
 * eBPF behaves on x86; programs normalize with the BE/LE byte-swap
 * instruction where field *values* matter, and keep raw wire bytes where
 * only *identity* matters (e.g. hash keys).
 */

#ifndef EHDL_APPS_APPS_HPP_
#define EHDL_APPS_APPS_HPP_

#include <functional>
#include <string>
#include <vector>

#include "ebpf/maps.hpp"
#include "ebpf/program.hpp"
#include "ebpf/xdp.hpp"
#include "net/headers.hpp"

namespace ehdl::apps {

/** One ready-to-run application: program + map seeding + workload hints. */
struct AppSpec
{
    ebpf::Program prog;
    std::string description;

    /** Seed control-plane state (routes, VIPs, NAT config) into maps. */
    std::function<void(ebpf::MapSet &)> seedMaps;

    /** Suggested workload parameters for benchmarks. */
    uint8_t ipProto = net::kIpProtoUdp;
    double reverseFraction = 0.0;
    /** Action most packets should take (sanity checks in tests). */
    ebpf::XdpAction expectedAction = ebpf::XdpAction::Tx;
};

/** Listing 1: per-EtherType packet counter, XDP_TX. */
AppSpec makeToyCounter();

/** Simple firewall: bidirectional UDP connection tracking (table 1). */
AppSpec makeSimpleFirewall();

/** router_ipv4: LPM route lookup, MAC rewrite, TTL/checksum, redirect. */
AppSpec makeRouterIpv4();

/** tx_iptunnel: parse to L4, IP-in-IP encapsulate, XDP_TX. */
AppSpec makeTxIpTunnel();

/** Dynamic source NAT with data-plane port allocation. */
AppSpec makeDnat();

/** Suricata-style bypass filter: ACL + per-flow and global stats. */
AppSpec makeSuricataFilter();

/** Leaky-bucket policer (section 5.3's flush-heavy application). */
AppSpec makeLeakyBucket();

/** Elastic-buffer demonstrator: atomic, then lookup, then update (A.2). */
AppSpec makeElasticDemo();

/**
 * Monitoring sampler (the intro's monitoring use case): forwards a random
 * 25% of IPv4 traffic to the collector, truncated to its first 64 bytes
 * with bpf_xdp_adjust_tail, and drops the rest; keeps seen/sampled
 * counters. Exercises prandom replay-determinism and tail adjustment.
 */
AppSpec makeMonitorSampler();

/**
 * Katran-style L4 load balancer (the intro's load-balancing use case):
 * VIP lookup, consistent backend choice by flow hash modulo the backend
 * count, IP-in-IP encapsulation toward the chosen backend, per-VIP
 * statistics. Exercises computed (non-constant) array indexing and the
 * divide/modulo datapath.
 */
AppSpec makeL4LoadBalancer();

/** IPIP decapsulator: strips the outer header the tunnel/LB added. */
AppSpec makeIpipDecap();

/** The five table-1 applications, in the paper's order. */
std::vector<AppSpec> paperApps();

/**
 * The built-in application named @p ref (toy, firewall, router or
 * router_ipv4, tunnel, dnat, suricata, leaky_bucket, lb, monitor), with
 * or without the `app:` prefix the tools accept. fatal() listing the
 * known names otherwise.
 */
AppSpec appByName(const std::string &ref);

/** Seed the Suricata bypass table with the given flows. */
void seedSuricataBypass(ebpf::MapSet &maps,
                        const std::vector<net::FlowKey> &flows);

}  // namespace ehdl::apps

#endif  // EHDL_APPS_APPS_HPP_
