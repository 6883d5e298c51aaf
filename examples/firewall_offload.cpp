/**
 * @file
 * Offloading a stateful UDP firewall to the NIC.
 *
 * The paper's motivating scenario: an unmodified eBPF/XDP connection
 * tracker becomes a tailored hardware pipeline. This example shows the
 * flow-state hazard machinery in action (flush-evaluation block on the
 * session table) and the host-side map interface of section 6: the
 * operator reads the session table the data plane populated.
 *
 * Build and run:  ./build/examples/firewall_offload
 */

#include <cstdio>

#include "apps/apps.hpp"
#include "hdl/compiler.hpp"
#include "sim/nic_shell.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

using namespace ehdl;

int
main()
{
    apps::AppSpec firewall = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(firewall.prog);
    std::printf("simple_firewall: %zu instructions -> %zu stages, "
                "%zu flush block(s) on the session table\n\n",
                firewall.prog.size(), pipe.numStages(),
                pipe.flushBlocks.size());

    ebpf::MapSet maps(firewall.prog.maps);
    sim::PipeSimConfig config;
    config.inputQueueCapacity = 1u << 16;
    sim::PipeSim sim(pipe, maps, config);

    // Mixed bidirectional traffic: trusted clients (10/8) talk to
    // external servers; 30% of packets are replies.
    sim::TrafficConfig traffic;
    traffic.numFlows = 40;
    traffic.reverseFraction = 0.3;
    sim::TrafficGen gen(traffic);
    const int packets = 20000;
    for (int i = 0; i < packets; ++i)
        sim.offer(gen.next());
    sim.drain();

    const sim::PipeSimStats &stats = sim.stats();
    const sim::EndToEndResult e2e = sim::summarizeEndToEnd(sim);
    std::printf("forwarded %llu, dropped %llu (unsolicited inbound), "
                "passed %llu\n",
                static_cast<unsigned long long>(stats.txPackets),
                static_cast<unsigned long long>(stats.dropPackets),
                static_cast<unsigned long long>(stats.passPackets));
    std::printf("throughput %.1f Mpps (line rate %.1f), latency %.0f ns, "
                "flushes %llu\n\n",
                e2e.throughputMpps, e2e.lineRateMpps, e2e.avgLatencyNs,
                static_cast<unsigned long long>(e2e.flushEvents));

    // Host-side view of the NIC-resident session table (section 6).
    ebpf::Map *sessions = maps.byName("sessions");
    std::printf("session table holds %u flows; first entries:\n",
                sessions->count());
    int shown = 0;
    for (const auto &[key, value] : sessions->snapshot()) {
        if (shown++ >= 5)
            break;
        std::printf("  %u.%u.%u.%u:%u -> %u.%u.%u.%u:%u\n", key[0], key[1],
                    key[2], key[3], (key[8] << 8) | key[9], key[4], key[5],
                    key[6], key[7], (key[10] << 8) | key[11]);
    }
    return 0;
}
