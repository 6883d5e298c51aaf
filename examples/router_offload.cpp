/**
 * @file
 * An IPv4 router in the NIC: LPM route lookup, MAC rewrite, TTL and
 * incremental checksum update, and bpf_redirect to the egress port —
 * the Linux xdp_router_ipv4 sample as tailored hardware.
 *
 * Shows control-plane route updates through the host map interface while
 * the data plane forwards (section 6: "the host writes maps, the data
 * plane only reads them").
 *
 * Build and run:  ./build/examples/router_offload
 */

#include <cstdio>

#include "apps/apps.hpp"
#include "common/bitops.hpp"
#include "hdl/compiler.hpp"
#include "net/checksum.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

using namespace ehdl;

namespace {

void
addRoute(ebpf::Map *routes, uint32_t prefix, uint32_t plen,
         uint32_t ifindex)
{
    std::vector<uint8_t> key(8, 0);
    storeLe<uint32_t>(key.data(), plen);
    storeBe<uint32_t>(key.data() + 4, prefix);
    std::vector<uint8_t> value(16, 0);
    storeLe<uint32_t>(value.data(), ifindex);
    for (int i = 0; i < 6; ++i) {
        value[4 + i] = static_cast<uint8_t>(0x80 + ifindex);
        value[10 + i] = static_cast<uint8_t>(0x20 + i);
    }
    routes->hostUpdate(key, value);
}

}  // namespace

int
main()
{
    apps::AppSpec router = apps::makeRouterIpv4();
    const hdl::Pipeline pipe = hdl::compile(router.prog);
    std::printf("router_ipv4: %zu instructions -> %zu stages\n\n",
                router.prog.size(), pipe.numStages());

    ebpf::MapSet maps(router.prog.maps);
    router.seedMaps(maps);  // default route + two more specific ones

    sim::PipeSimConfig config;
    config.inputQueueCapacity = 1u << 16;
    sim::OutcomeLog log;
    sim::PipeSim sim(pipe, maps, config);
    sim.attachRetireSink(&log);

    sim::TrafficConfig traffic;
    traffic.numFlows = 2000;
    sim::TrafficGen gen(traffic);
    for (int i = 0; i < 10000; ++i)
        sim.offer(gen.next());

    // Control-plane churn while traffic flows: add a /28 mid-run.
    for (int step = 0; step < 2000; ++step)
        sim.step();
    addRoute(maps.byName("routes"), 0xc0a84200u, 28, 7);
    sim.drain();

    std::map<uint32_t, uint64_t> per_if;
    uint64_t checksum_ok = 0, forwarded = 0;
    for (const sim::PacketOutcome &out : log.outcomes) {
        if (out.action != ebpf::XdpAction::Redirect)
            continue;
        ++forwarded;
        per_if[out.redirectIfindex]++;
        if (net::onesComplementSum(out.bytes.data() + 14, 20) == 0xffff)
            ++checksum_ok;
    }
    std::printf("forwarded %llu packets; rewritten header checksums all "
                "valid: %s\n",
                static_cast<unsigned long long>(forwarded),
                checksum_ok == forwarded ? "yes" : "NO");
    for (const auto &[ifindex, count] : per_if)
        std::printf("  egress if%u: %llu packets\n", ifindex,
                    static_cast<unsigned long long>(count));

    std::vector<uint8_t> key(4, 0);
    std::printf("aggregated counter (global state, atomic): %llu\n",
                static_cast<unsigned long long>(loadLe<uint64_t>(
                    maps.byName("rtstats")->hostLookup(key)->data())));
    return 0;
}
