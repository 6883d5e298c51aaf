/**
 * @file
 * Replaying an internet-like traffic trace through a flush-heavy pipeline
 * (the paper's section 5.3 experiment): the leaky-bucket policer performs
 * a read-modify-write of per-flow state for every packet, so its RAW
 * hazard window is exercised constantly, yet under realistic flow
 * distributions the flush probability stays low enough for zero loss.
 *
 * Build and run:  ./build/examples/trace_replay [caida|mawi|adversarial]
 */

#include <cstdio>
#include <cstring>

#include "apps/apps.hpp"
#include "hdl/compiler.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

using namespace ehdl;

int
main(int argc, char **argv)
{
    const char *which = argc > 1 ? argv[1] : "caida";

    apps::AppSpec leaky = apps::makeLeakyBucket();
    const hdl::Pipeline pipe = hdl::compile(leaky.prog);
    std::printf("leaky_bucket pipeline: %zu stages, %zu flush blocks, "
                "%zu speculation buffer(s)\n\n",
                pipe.numStages(), pipe.flushBlocks.size(),
                pipe.warBuffers.size());

    sim::TrafficGen gen = [&which]() {
        if (std::strcmp(which, "mawi") == 0)
            return sim::makeTraceReplay(sim::mawiProfile());
        if (std::strcmp(which, "adversarial") == 0) {
            sim::TrafficConfig config;
            config.numFlows = 1;  // every packet hits one map entry
            config.packetLen = 64;
            return sim::TrafficGen(config);
        }
        return sim::makeTraceReplay(sim::caidaProfile());
    }();

    ebpf::MapSet maps(leaky.prog.maps);
    sim::PipeSimConfig config;
    config.inputQueueCapacity = 512;  // a real ingress FIFO
    sim::PipeSim sim(pipe, maps, config);

    const int packets = 100000;
    for (int i = 0; i < packets; ++i) {
        sim.offer(gen.next());
        while (static_cast<uint64_t>(sim.stats().cycles * config.cycleNs()) <
               gen.nowNs())
            sim.step();
    }
    sim.drain();

    const double seconds = static_cast<double>(gen.nowNs()) * 1e-9;
    std::printf("trace '%s': %d packets over %.2f ms of 100 Gbps "
                "traffic\n",
                which, packets, seconds * 1e3);
    std::printf("  lost packets:   %llu\n",
                static_cast<unsigned long long>(sim.stats().lost));
    std::printf("  flush events:   %llu (%.0fk/sec)\n",
                static_cast<unsigned long long>(sim.stats().flushEvents),
                static_cast<double>(sim.stats().flushEvents) / seconds /
                    1000.0);
    std::printf("  replayed work:  %llu stages\n",
                static_cast<unsigned long long>(
                    sim.stats().replayedStages));
    std::printf("  throughput:     %.1f Mpps\n",
                sim.stats().throughputMpps(250000000));
    std::printf("  active flows:   %u\n",
                maps.byName("buckets")->count());
    return 0;
}
