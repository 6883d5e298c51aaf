/**
 * @file
 * Multi-queue pipeline replication: RSS dispatch properties, equivalence
 * of the N-replica aggregate with a single pipeline (and with the
 * sequential reference VM) on hash-disjoint flows, determinism of the
 * threaded drain, and modeled throughput scaling.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

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
using sim::MapMode;
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
bigQueues(unsigned replicas, MapMode mode, bool threaded = false)
{
    MultiPipeSimConfig config;
    config.numReplicas = replicas;
    config.mapMode = mode;
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
    MultiPipeSim multi(pipe, maps, bigQueues(4, MapMode::Sharded));

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
    MultiPipeSim multi(pipe, maps, bigQueues(4, MapMode::Sharded));

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
    MultiPipeSim multi(pipe, maps, bigQueues(4, MapMode::Sharded));

    net::Packet raw(64);  // zero-filled: not an IPv4 frame
    EXPECT_EQ(MultiPipeSim::symmetricFlowHash(raw), 0u);
    EXPECT_EQ(multi.dispatch(raw), 0u);
}

TEST(MultiPipeSim, RejectsThreadedSharedMaps)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    EXPECT_THROW(
        MultiPipeSim(pipe, maps, bigQueues(2, MapMode::Shared, true)),
        FatalError);
}

TEST(MultiPipeSim, RejectsZeroReplicas)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    EXPECT_THROW(MultiPipeSim(pipe, maps, bigQueues(0, MapMode::Sharded)),
                 FatalError);
}

/**
 * Hash-disjoint flows: the aggregate of N replicas with one shared map
 * set must match both a single-pipeline run and the sequential VM —
 * same per-packet verdicts and bytes, identical final map state. Flow
 * state is keyed by the 5-tuple, and the symmetric dispatch pins each
 * flow (both directions) to one replica, so replication must not be
 * observable.
 */
void
checkSharedEquivalence(const AppSpec &spec, uint64_t flows, int npkts,
                       double reverse)
{
    const hdl::Pipeline pipe = hdl::compile(spec.prog);

    const auto packets = makeTrace(spec, flows, npkts, reverse);

    MapSet multi_maps(spec.prog.maps);
    spec.seedMaps(multi_maps);
    MultiPipeSim multi(pipe, multi_maps, bigQueues(4, MapMode::Shared));
    ReplicaLogs logs(multi);
    for (const net::Packet &pkt : packets)
        ASSERT_TRUE(multi.offer(pkt));
    multi.drain();
    EXPECT_EQ(multi.stats().completed, static_cast<uint64_t>(npkts));

    MapSet single_maps(spec.prog.maps);
    spec.seedMaps(single_maps);
    sim::PipeSimConfig single_config;
    single_config.inputQueueCapacity = 1u << 20;
    sim::OutcomeLog single_log;
    sim::PipeSim single(pipe, single_maps, single_config);
    single.attachRetireSink(&single_log);
    for (const net::Packet &pkt : packets)
        ASSERT_TRUE(single.offer(pkt));
    single.drain();

    MapSet vm_maps(spec.prog.maps);
    spec.seedMaps(vm_maps);
    ebpf::Vm vm(spec.prog, vm_maps);

    std::map<uint64_t, const PacketOutcome *> single_by_id;
    for (const PacketOutcome &out : single_log.outcomes)
        single_by_id[out.id] = &out;

    const auto merged = logs.mergedById();
    ASSERT_EQ(merged.size(), packets.size());
    int mismatches = 0;
    for (size_t i = 0; i < packets.size(); ++i) {
        net::Packet copy = packets[i];
        const ebpf::ExecResult ref = vm.run(copy);
        const PacketOutcome &out = merged[i];
        ASSERT_EQ(out.id, packets[i].id);
        const PacketOutcome &sout = *single_by_id.at(out.id);
        if (out.action != ref.action || out.bytes != copy.bytes() ||
            out.redirectIfindex != ref.redirectIfindex)
            ++mismatches;
        if (out.action != sout.action || out.bytes != sout.bytes)
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_TRUE(MapSet::equal(multi_maps, vm_maps))
        << "multi:\n" << multi_maps.dump() << "\nvm:\n" << vm_maps.dump();
    EXPECT_TRUE(MapSet::equal(multi_maps, single_maps));
}

TEST(MultiPipeSimEquivalence, FirewallSharedMaps)
{
    checkSharedEquivalence(apps::makeSimpleFirewall(), 96, 1500, 0.3);
}

TEST(MultiPipeSimEquivalence, LeakyBucketSharedMaps)
{
    checkSharedEquivalence(apps::makeLeakyBucket(), 32, 1500, 0.0);
}

/** Per-packet outcomes in sharded mode also match the sequential VM. */
TEST(MultiPipeSimEquivalence, FirewallShardedOutcomes)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const auto packets = makeTrace(spec, 96, 1500, 0.3);

    MapSet seed_maps(spec.prog.maps);
    spec.seedMaps(seed_maps);
    MultiPipeSim multi(pipe, seed_maps, bigQueues(4, MapMode::Sharded));
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
                           bigQueues(4, MapMode::Sharded, true));
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

/** Threaded and lockstep drains of sharded replicas agree exactly. */
TEST(MultiPipeSimDeterminism, ThreadedMatchesLockstep)
{
    const AppSpec spec = apps::makeSimpleFirewall();
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    const auto packets = makeTrace(spec, 48, 1200, 0.25);

    auto run = [&](bool threaded) {
        MapSet maps(spec.prog.maps);
        spec.seedMaps(maps);
        MultiPipeSim multi(pipe, maps,
                           bigQueues(4, MapMode::Sharded, threaded));
        ReplicaLogs logs(multi);
        for (const net::Packet &pkt : packets)
            EXPECT_TRUE(multi.offer(pkt));
        multi.drain();
        return logs.mergedById();
    };

    const auto threaded = run(true);
    const auto lockstep = run(false);
    ASSERT_EQ(threaded.size(), lockstep.size());
    for (size_t i = 0; i < threaded.size(); ++i) {
        EXPECT_EQ(threaded[i].id, lockstep[i].id);
        EXPECT_EQ(threaded[i].action, lockstep[i].action);
        EXPECT_EQ(threaded[i].bytes, lockstep[i].bytes);
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
                           bigQueues(replicas, MapMode::Sharded));
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
