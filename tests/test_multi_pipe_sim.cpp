/**
 * @file
 * Multi-queue pipeline replication: RSS dispatch properties, equivalence
 * of the N-replica outcomes with the sequential reference VM, replicas
 * that share nothing (sequential and threaded drains agree, and each
 * replica equals a standalone pipeline fed its own stream), and modeled
 * throughput scaling.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "apps/apps.hpp"
#include "common/logging.hpp"
#include "ebpf/vm.hpp"
#include "hdl/compiler.hpp"
#include "net/headers.hpp"
#include "replica_logs.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace ehdl {
namespace {

using apps::AppSpec;
using ebpf::MapSet;
using sim::MultiPipeSim;
using sim::MultiPipeSimConfig;
using sim::PacketOutcome;
using sim::ReplicaLogs;

std::vector<net::Packet>
makeTrace(const AppSpec &spec, uint64_t num_flows, int num_packets,
          double reverse_fraction, uint64_t seed = 17)
{
    sim::TrafficConfig config;
    config.numFlows = num_flows;
    config.reverseFraction = reverse_fraction;
    config.seed = seed;
    config.ipProto = spec.ipProto;
    sim::TrafficGen gen(config);
    std::vector<net::Packet> packets;
    packets.reserve(static_cast<size_t>(num_packets));
    for (int i = 0; i < num_packets; ++i)
        packets.push_back(gen.next());
    return packets;
}

MultiPipeSimConfig
bigQueues(unsigned replicas, bool threaded = false)
{
    MultiPipeSimConfig config;
    config.numReplicas = replicas;
    config.threaded = threaded;
    config.pipe.inputQueueCapacity = 1u << 20;
    return config;
}

TEST(MultiPipeSimDispatch, SymmetricAcrossFlowDirections)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    MultiPipeSim multi(pipe, maps, bigQueues(4));

    // Forward and reverse packets of the same flow land on one replica.
    const auto packets = makeTrace(spec, 64, 512, 0.5);
    std::map<uint32_t, size_t> replica_of_hash;
    for (const net::Packet &pkt : packets) {
        net::FlowKey flow;
        ASSERT_TRUE(net::PacketFactory::parseFlow(pkt, flow));
        net::FlowKey canon = flow;
        const net::FlowKey rev = flow.reversed();
        if (std::tie(rev.srcIp, rev.srcPort) <
            std::tie(canon.srcIp, canon.srcPort))
            canon = rev;
        const uint32_t hash = MultiPipeSim::symmetricFlowHash(pkt);
        const size_t replica = multi.dispatch(pkt);
        auto [it, inserted] =
            replica_of_hash.emplace(net::FlowKeyHash{}(canon), replica);
        EXPECT_EQ(it->second, replica) << "flow split across replicas";
        EXPECT_EQ(hash % 4, replica);
    }
}

TEST(MultiPipeSimDispatch, BalancesManyFlows)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    MultiPipeSim multi(pipe, maps, bigQueues(4));

    const auto packets = makeTrace(spec, 1024, 4096, 0.0);
    std::vector<int> per_replica(4, 0);
    for (const net::Packet &pkt : packets)
        per_replica[multi.dispatch(pkt)]++;
    for (int count : per_replica) {
        // A fair hash keeps every replica between ~10% and ~45%.
        EXPECT_GT(count, 4096 / 10);
        EXPECT_LT(count, 4096 * 45 / 100);
    }
}

TEST(MultiPipeSimDispatch, NonIpv4PinsToReplicaZero)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    MultiPipeSim multi(pipe, maps, bigQueues(4));

    net::Packet raw(64);  // zero-filled: not an IPv4 frame
    EXPECT_EQ(MultiPipeSim::symmetricFlowHash(raw), 0u);
    EXPECT_EQ(multi.dispatch(raw), 0u);
}

TEST(MultiPipeSim, RejectsZeroReplicas)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    EXPECT_THROW(MultiPipeSim(pipe, maps, bigQueues(0)),
                 FatalError);
}

/** Per-packet outcomes of sharded replicas match the sequential VM. */
TEST(MultiPipeSimEquivalence, FirewallShardedOutcomes)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const auto packets = makeTrace(spec, 96, 1500, 0.3);

    MapSet seed_maps(spec.prog.maps);
    spec.seedMaps(seed_maps);
    MultiPipeSim multi(pipe, seed_maps, bigQueues(4));
    ReplicaLogs logs(multi);
    for (const net::Packet &pkt : packets)
        ASSERT_TRUE(multi.offer(pkt));
    multi.drain();

    MapSet vm_maps(spec.prog.maps);
    spec.seedMaps(vm_maps);
    ebpf::Vm vm(spec.prog, vm_maps);

    const auto merged = logs.mergedById();
    ASSERT_EQ(merged.size(), packets.size());
    int mismatches = 0;
    for (size_t i = 0; i < packets.size(); ++i) {
        net::Packet copy = packets[i];
        const ebpf::ExecResult ref = vm.run(copy);
        if (merged[i].action != ref.action ||
            merged[i].bytes != copy.bytes())
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
    // Sharding must not have leaked state across replicas: the template
    // map set passed to the constructor stays untouched.
    MapSet pristine(spec.prog.maps);
    spec.seedMaps(pristine);
    EXPECT_TRUE(MapSet::equal(seed_maps, pristine));
}

/** Two threaded runs of the same trace agree exactly. */
TEST(MultiPipeSimDeterminism, ThreadedRunsAreIdentical)
{
    const AppSpec spec = apps::makeLeakyBucket();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const auto packets = makeTrace(spec, 24, 2000, 0.0);

    auto run = [&](std::vector<PacketOutcome> &outcomes,
                   sim::PipeSimStats &stats) {
        MapSet maps(spec.prog.maps);
        spec.seedMaps(maps);
        MultiPipeSim multi(pipe, maps,
                           bigQueues(4, true));
        ReplicaLogs logs(multi);
        for (const net::Packet &pkt : packets)
            ASSERT_TRUE(multi.offer(pkt));
        multi.drain();
        outcomes = logs.mergedById();
        stats = multi.stats();
    };

    std::vector<PacketOutcome> out_a, out_b;
    sim::PipeSimStats stats_a, stats_b;
    run(out_a, stats_a);
    run(out_b, stats_b);

    EXPECT_EQ(stats_a.cycles, stats_b.cycles);
    EXPECT_EQ(stats_a.completed, stats_b.completed);
    EXPECT_EQ(stats_a.flushEvents, stats_b.flushEvents);
    EXPECT_EQ(stats_a.stallCycles, stats_b.stallCycles);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (size_t i = 0; i < out_a.size(); ++i) {
        EXPECT_EQ(out_a[i].id, out_b[i].id);
        EXPECT_EQ(out_a[i].action, out_b[i].action);
        EXPECT_EQ(out_a[i].bytes, out_b[i].bytes);
        EXPECT_EQ(out_a[i].exitCycle, out_b[i].exitCycle);
    }
}

void
expectSameOutcomes(const std::vector<PacketOutcome> &a,
                   const std::vector<PacketOutcome> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("outcome " + std::to_string(i));
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].action, b[i].action);
        EXPECT_EQ(a[i].redirectIfindex, b[i].redirectIfindex);
        EXPECT_EQ(a[i].trapped, b[i].trapped);
        EXPECT_EQ(a[i].entryCycle, b[i].entryCycle);
        EXPECT_EQ(a[i].exitCycle, b[i].exitCycle);
        EXPECT_EQ(a[i].bytes, b[i].bytes);
    }
}

/** Every counter of the bit-identical contract (not the diagnostics). */
void
expectSameContractedStats(const sim::PipeSimStats &a,
                          const sim::PipeSimStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.flushEvents, b.flushEvents);
    EXPECT_EQ(a.flushedPackets, b.flushedPackets);
    EXPECT_EQ(a.replayedStages, b.replayedStages);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.passPackets, b.passPackets);
    EXPECT_EQ(a.dropPackets, b.dropPackets);
    EXPECT_EQ(a.txPackets, b.txPackets);
    EXPECT_EQ(a.redirectPackets, b.redirectPackets);
    EXPECT_EQ(a.abortedPackets, b.abortedPackets);
}

/**
 * Replicas share nothing: the sequential and threaded drains agree on
 * every replica's outcomes (cycles included) and contracted counters,
 * and each replica equals a standalone PipeSim fed that replica's
 * dispatch() stream over maps copied from the seed.
 */
TEST(MultiPipeSimDeterminism, ThreadedMatchesSequential)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const auto packets = makeTrace(spec, 48, 1200, 0.25);
    MapSet seed(spec.prog.maps);
    spec.seedMaps(seed);

    struct Replica
    {
        std::vector<net::Packet> stream;  ///< as dispatched to it
        std::vector<PacketOutcome> outcomes;
        sim::PipeSimStats stats;
        std::string maps;  ///< final shard contents (MapSet::dump)
    };
    auto run = [&](bool threaded) {
        MultiPipeSim multi(pipe, seed, bigQueues(4, threaded));
        ReplicaLogs logs(multi);
        std::vector<Replica> out(multi.numReplicas());
        for (net::Packet pkt : packets) {
            pkt.rxQueueIndex = static_cast<uint32_t>(multi.dispatch(pkt));
            out[pkt.rxQueueIndex].stream.push_back(pkt);
            EXPECT_TRUE(multi.offer(std::move(pkt)));
        }
        multi.drain();
        for (size_t r = 0; r < out.size(); ++r) {
            out[r].outcomes = logs.replica(r);
            out[r].stats = multi.replica(r).stats();
            out[r].maps = multi.replicaMaps(r).dump();
        }
        return out;
    };
    const auto sequential = run(false);
    const auto threaded = run(true);

    for (size_t r = 0; r < sequential.size(); ++r) {
        SCOPED_TRACE("replica " + std::to_string(r));
        EXPECT_GT(sequential[r].stats.completed, 0u);
        expectSameOutcomes(sequential[r].outcomes, threaded[r].outcomes);
        expectSameContractedStats(sequential[r].stats, threaded[r].stats);
        EXPECT_EQ(sequential[r].maps, threaded[r].maps);

        MapSet maps(spec.prog.maps);
        maps.copyContentsFrom(seed);
        sim::OutcomeLog log;
        sim::PipeSim alone(pipe, maps, bigQueues(1).pipe);
        alone.attachRetireSink(&log);
        for (const net::Packet &pkt : sequential[r].stream)
            EXPECT_TRUE(alone.offer(pkt));
        alone.drain();
        expectSameOutcomes(sequential[r].outcomes, log.outcomes);
        expectSameContractedStats(sequential[r].stats, alone.stats());
        EXPECT_EQ(sequential[r].maps, maps.dump());
    }
}

/** A worker's exception reaches the caller once every replica has run. */
TEST(MultiPipeSim, ForEachReplicaForwardsExceptions)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    MapSet maps(spec.prog.maps);
    for (const bool threaded : {false, true}) {
        MultiPipeSim multi(pipe, maps, bigQueues(4, threaded));
        std::vector<int> calls(multi.numReplicas(), 0);
        const auto fail_on_one = [&calls](size_t r) {
            ++calls[r];
            if (r == 1)
                fatal("replica ", r, " failed");
        };
        EXPECT_THROW(multi.forEachReplica(fail_on_one), FatalError);
        // Sequential order stops at the throw; workers all run.
        const std::vector<int> expected =
            threaded ? std::vector<int>{1, 1, 1, 1}
                     : std::vector<int>{1, 1, 0, 0};
        EXPECT_EQ(calls, expected) << "threaded=" << threaded;
    }
}

/**
 * Modeled throughput scaling: with hash-balanced back-to-back traffic,
 * four replicas must sustain at least 3x the modeled packet rate of a
 * single pipeline (the paper's motivation for multi-queue replication).
 */
TEST(MultiPipeSimScaling, FourReplicasBeatThreeX)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    auto packets = makeTrace(spec, 512, 6000, 0.0);
    for (net::Packet &pkt : packets)
        pkt.arrivalNs = 0;  // saturating offered load

    auto modeled_mpps = [&](unsigned replicas) {
        MapSet maps(spec.prog.maps);
        spec.seedMaps(maps);
        MultiPipeSim multi(pipe, maps,
                           bigQueues(replicas));
        for (const net::Packet &pkt : packets)
            EXPECT_TRUE(multi.offer(pkt));
        multi.drain();
        const sim::PipeSimStats stats = multi.stats();
        EXPECT_EQ(stats.completed, packets.size());
        return stats.throughputMpps(multi.config().pipe.clockHz);
    };

    const double one = modeled_mpps(1);
    const double four = modeled_mpps(4);
    EXPECT_GE(four, 3.0 * one);
}

}  // namespace
}  // namespace ehdl
