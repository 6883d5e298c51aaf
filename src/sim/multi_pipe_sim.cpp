#include "sim/multi_pipe_sim.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/logging.hpp"
#include "net/headers.hpp"

namespace ehdl::sim {

MultiPipeSim::MultiPipeSim(const hdl::Pipeline &pipe, ebpf::MapSet &maps,
                           MultiPipeSimConfig config)
    : config_(config)
{
    if (config_.numReplicas == 0)
        fatal("MultiPipeSim needs at least one replica");
    for (unsigned i = 0; i < config_.numReplicas; ++i) {
        auto shard = std::make_unique<ebpf::MapSet>(pipe.prog.maps);
        shard->copyContentsFrom(maps);
        replicas_.push_back(
            std::make_unique<PipeSim>(pipe, *shard, config_.pipe));
        shards_.push_back(std::move(shard));
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
    forEachReplica([this](size_t r) { replicas_[r]->drain(); });
}

void
MultiPipeSim::forEachReplica(const std::function<void(size_t)> &fn)
{
    const size_t n = replicas_.size();
    if (!config_.threaded) {
        for (size_t r = 0; r < n; ++r)
            fn(r);
        return;
    }
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (size_t r = 0; r < n; ++r)
        workers.emplace_back([&fn, &errors, r] {
            try {
                fn(r);
            } catch (...) {
                errors[r] = std::current_exception();
            }
        });
    for (std::thread &w : workers)
        w.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
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
