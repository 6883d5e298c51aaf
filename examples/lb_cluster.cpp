/**
 * @file
 * A load-balancer + backend-decap pair on two NICs — the service chain
 * the paper's introduction motivates (Katran-style load balancing [11]).
 *
 * The LB NIC matches the VIP, picks a backend by flow hash and
 * IPIP-encapsulates; the backend NIC strips the outer header. Both are
 * eHDL pipelines; packets forwarded by the first are replayed into the
 * second, and the emitted traffic is written as a pcap for inspection
 * with standard tools.
 *
 * Build and run:  ./build/examples/lb_cluster [out.pcap]
 */

#include <cstdio>
#include <map>

#include "apps/apps.hpp"
#include "common/bitops.hpp"
#include "hdl/compiler.hpp"
#include "net/pcap.hpp"
#include "sim/pipe_sim.hpp"

using namespace ehdl;

int
main(int argc, char **argv)
{
    apps::AppSpec lb = apps::makeL4LoadBalancer();
    apps::AppSpec decap = apps::makeIpipDecap();
    const hdl::Pipeline lb_pipe = hdl::compile(lb.prog);
    const hdl::Pipeline decap_pipe = hdl::compile(decap.prog);
    std::printf("lb: %zu stages; decap: %zu stages\n\n",
                lb_pipe.numStages(), decap_pipe.numStages());

    // --- Stage 1: clients hit the VIP through the LB NIC. -------------
    ebpf::MapSet lb_maps(lb.prog.maps);
    lb.seedMaps(lb_maps);
    sim::PipeSimConfig config;
    config.inputQueueCapacity = 1u << 16;
    sim::OutcomeLog lb_log;
    sim::PipeSim lb_sim(lb_pipe, lb_maps, config);
    lb_sim.attachRetireSink(&lb_log);

    for (uint64_t i = 1; i <= 2000; ++i) {
        net::PacketSpec spec;
        spec.flow = {0x0a000000u + static_cast<uint32_t>(i % 97),
                     0xc0a8000a, static_cast<uint16_t>(30000 + i % 251),
                     53, net::kIpProtoUdp};
        net::Packet pkt = net::PacketFactory::build(spec);
        pkt.id = i;
        lb_sim.offer(pkt);
    }
    lb_sim.drain();

    std::map<uint32_t, uint64_t> per_backend;
    std::vector<net::Packet> toward_backends;
    for (const sim::PacketOutcome &out : lb_log.outcomes) {
        if (out.action != ebpf::XdpAction::Tx)
            continue;
        per_backend[loadBe<uint32_t>(out.bytes.data() + 30)]++;
        net::Packet pkt(out.bytes);
        pkt.id = out.id;
        toward_backends.push_back(std::move(pkt));
    }
    std::printf("LB forwarded %zu packets across %zu backends:\n",
                toward_backends.size(), per_backend.size());
    for (const auto &[backend, count] : per_backend)
        std::printf("  10.200.1.%u: %llu\n", backend & 0xff,
                    static_cast<unsigned long long>(count));

    // --- Stage 2: one backend decapsulates what it received. -----------
    ebpf::MapSet decap_maps(decap.prog.maps);
    sim::PipeSim decap_sim(decap_pipe, decap_maps, config);
    for (const net::Packet &pkt : toward_backends)
        decap_sim.offer(pkt);
    decap_sim.drain();
    std::printf("\nbackend decapsulated %llu packets (outer header "
                "removed)\n",
                static_cast<unsigned long long>(
                    decap_sim.stats().txPackets));

    if (argc > 1) {
        net::writePcap(argv[1], toward_backends);
        std::printf("wrote the encapsulated traffic to %s\n", argv[1]);
    }
    return 0;
}
