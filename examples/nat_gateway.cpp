/**
 * @file
 * A NAT gateway on the NIC — the application the paper uses to show what
 * network-specific HLS tools cannot express: the port binding is
 * allocated *in the data plane* (read/write access to the eBPF maps from
 * hardware), with the reverse translation installed for return traffic.
 *
 * Runs a bidirectional conversation through the pipeline and verifies
 * the address/port rewriting end to end.
 *
 * Build and run:  ./build/examples/nat_gateway
 */

#include <cstdio>

#include "apps/apps.hpp"
#include "hdl/compiler.hpp"
#include "net/checksum.hpp"
#include "sim/pipe_sim.hpp"

using namespace ehdl;

namespace {

net::Packet
makePacket(const net::FlowKey &flow, uint64_t id)
{
    net::PacketSpec spec;
    spec.flow = flow;
    net::Packet pkt = net::PacketFactory::build(spec);
    pkt.id = id;
    return pkt;
}

}  // namespace

int
main()
{
    apps::AppSpec dnat = apps::makeDnat();
    const hdl::Pipeline pipe = hdl::compile(dnat.prog);
    std::printf("dnat: %zu instructions -> %zu stages, %zu flush blocks "
                "(binding creation is a data-plane map update)\n\n",
                dnat.prog.size(), pipe.numStages(),
                pipe.flushBlocks.size());

    ebpf::MapSet maps(dnat.prog.maps);
    sim::PipeSimConfig config;
    config.inputQueueCapacity = 4096;
    sim::OutcomeLog log;
    sim::PipeSim sim(pipe, maps, config);
    sim.attachRetireSink(&log);

    // Three internal clients each send two packets to an external server.
    uint64_t id = 0;
    std::vector<net::FlowKey> clients = {
        {0x0a000001, 0xc0a80001, 40001, 53, net::kIpProtoUdp},
        {0x0a000002, 0xc0a80001, 40002, 53, net::kIpProtoUdp},
        {0x0a000003, 0xc0a80001, 40003, 53, net::kIpProtoUdp},
    };
    for (int round = 0; round < 2; ++round)
        for (const net::FlowKey &flow : clients)
            sim.offer(makePacket(flow, ++id));
    sim.drain();

    std::printf("outbound translations (client -> wire view):\n");
    std::vector<net::FlowKey> translated;
    for (const sim::PacketOutcome &out : log.outcomes) {
        net::Packet pkt(out.bytes);
        net::FlowKey flow;
        net::PacketFactory::parseFlow(pkt, flow);
        translated.push_back(flow);
        std::printf("  id %llu: src %u.%u.%u.%u:%u (csum %s)\n",
                    static_cast<unsigned long long>(out.id),
                    flow.srcIp >> 24, (flow.srcIp >> 16) & 0xff,
                    (flow.srcIp >> 8) & 0xff, flow.srcIp & 0xff,
                    flow.srcPort,
                    net::onesComplementSum(out.bytes.data() + 14, 20) ==
                            0xffff
                        ? "ok"
                        : "BAD");
    }

    // Return traffic toward the NAT address must be de-translated.
    std::printf("\nreturn traffic:\n");
    sim::OutcomeLog log2;
    sim::PipeSim sim2(pipe, maps, config);
    sim2.attachRetireSink(&log2);
    for (size_t i = 0; i < clients.size(); ++i) {
        const net::FlowKey back{clients[i].dstIp, 0xc0000201u,
                                clients[i].dstPort,
                                translated[i].srcPort,
                                net::kIpProtoUdp};
        sim2.offer(makePacket(back, 100 + i));
    }
    sim2.drain();
    for (const sim::PacketOutcome &out : log2.outcomes) {
        net::Packet pkt(out.bytes);
        net::FlowKey flow;
        net::PacketFactory::parseFlow(pkt, flow);
        std::printf("  id %llu: %s, restored dst %u.%u.%u.%u:%u\n",
                    static_cast<unsigned long long>(out.id),
                    xdpActionName(out.action).c_str(), flow.dstIp >> 24,
                    (flow.dstIp >> 16) & 0xff, (flow.dstIp >> 8) & 0xff,
                    flow.dstIp & 0xff, flow.dstPort);
    }

    std::printf("\nNAT table: %u bindings, reverse table: %u\n",
                maps.byName("nat")->count(), maps.byName("rnat")->count());
    return 0;
}
