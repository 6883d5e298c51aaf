#include "sim/multi_pipe_sim.hpp"

#include <algorithm>
#include <thread>

#include "common/logging.hpp"
#include "net/headers.hpp"

namespace ehdl::sim {

MultiPipeSim::MultiPipeSim(const hdl::Pipeline &pipe, ebpf::MapSet &maps,
                           MultiPipeSimConfig config)
    : pipe_(pipe), sharedMaps_(maps), config_(config)
{
    if (config_.numReplicas == 0)
        fatal("MultiPipeSim needs at least one replica");
    if (config_.threaded && config_.mapMode == MapMode::Shared)
        fatal("threaded MultiPipeSim requires sharded maps: replicas "
              "sharing one MapSet must run in lockstep");
    if (config_.pipe.schedMode == SchedMode::EventDriven &&
        config_.mapMode == MapMode::Shared)
        fatal("event-driven scheduling requires sharded maps: replicas "
              "sharing one MapSet must tick the same dense cycle sequence "
              "to interleave their map accesses deterministically");
    for (unsigned i = 0; i < config_.numReplicas; ++i) {
        ebpf::MapSet *replica_maps = &sharedMaps_;
        if (config_.mapMode == MapMode::Sharded) {
            auto shard = std::make_unique<ebpf::MapSet>(pipe_.prog.maps);
            shard->copyContentsFrom(sharedMaps_);
            replica_maps = shard.get();
            shards_.push_back(std::move(shard));
        }
        replicas_.push_back(
            std::make_unique<PipeSim>(pipe_, *replica_maps, config_.pipe));
    }
}

MultiPipeSim::~MultiPipeSim() = default;

uint32_t
MultiPipeSim::symmetricFlowHash(const net::Packet &pkt)
{
    net::FlowKey flow;
    if (!net::PacketFactory::parseFlow(pkt, flow))
        return 0;
    // Order the two endpoints so that a flow and its reverse direction
    // produce the same digest (symmetric RSS).
    uint64_t a = (static_cast<uint64_t>(flow.srcIp) << 16) | flow.srcPort;
    uint64_t b = (static_cast<uint64_t>(flow.dstIp) << 16) | flow.dstPort;
    if (a > b)
        std::swap(a, b);
    uint32_t h = 2166136261u;  // FNV-1a
    const auto mix = [&h](uint64_t v, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i) {
            h ^= static_cast<uint8_t>(v >> (8 * i));
            h *= 16777619u;
        }
    };
    mix(a, 6);
    mix(b, 6);
    mix(flow.proto, 1);
    return h;
}

size_t
MultiPipeSim::dispatch(const net::Packet &pkt) const
{
    return symmetricFlowHash(pkt) % replicas_.size();
}

bool
MultiPipeSim::offer(net::Packet pkt)
{
    const size_t target = dispatch(pkt);
    pkt.rxQueueIndex = static_cast<uint32_t>(target);
    return replicas_[target]->offer(std::move(pkt));
}

void
MultiPipeSim::drain()
{
    if (config_.threaded)
        drainThreaded();
    else
        drainLockstep();
}

void
MultiPipeSim::drainLockstep()
{
    // Fixed round-robin stepping keeps shared-map runs deterministic:
    // replica r always advances its cycle c before replica r+1 does.
    uint64_t accepted = 0;
    for (const auto &r : replicas_)
        accepted += r->stats().accepted;
    const uint64_t budget =
        1000000ULL + 2000ULL * (accepted + pipe_.numStages());
    uint64_t steps = 0;
    for (;;) {
        bool busy = false;
        for (const auto &r : replicas_)
            if (!r->idle()) {
                r->step();
                busy = true;
            }
        if (!busy)
            return;
        if (++steps > budget)
            panic("multi-queue simulation did not drain (livelock?)");
    }
}

void
MultiPipeSim::drainThreaded()
{
    // Replicas share nothing in sharded mode, so each worker produces
    // the same outcome stream as a sequential drain of its replica.
    std::vector<std::thread> workers;
    workers.reserve(replicas_.size());
    for (const auto &r : replicas_)
        workers.emplace_back([&sim = *r] { sim.drain(); });
    for (std::thread &w : workers)
        w.join();
}

ebpf::MapSet &
MultiPipeSim::replicaMaps(size_t i)
{
    if (config_.mapMode == MapMode::Shared)
        return sharedMaps_;
    return *shards_[i];
}

PipeSimStats
MultiPipeSim::stats() const
{
    PipeSimStats agg;
    for (const auto &r : replicas_) {
        const PipeSimStats &s = r->stats();
        agg.cycles = std::max(agg.cycles, s.cycles);
        agg.addCounters(s);
    }
    return agg;
}

PipeSimPhaseProfile
MultiPipeSim::phaseProfile() const
{
    PipeSimPhaseProfile agg;
    for (const auto &r : replicas_) {
        const PipeSimPhaseProfile p = r->phaseProfile();
        agg.enabled = agg.enabled || p.enabled;
        agg.executeSec += p.executeSec;
        agg.hazardSec += p.hazardSec;
        agg.checkpointSec += p.checkpointSec;
        agg.commitSec += p.commitSec;
        agg.advanceRetireSec += p.advanceRetireSec;
        agg.flushSec += p.flushSec;
    }
    return agg;
}

}  // namespace ehdl::sim
