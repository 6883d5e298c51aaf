/**
 * @file
 * Differential testing: the hazard-managed parallel pipeline must be
 * observationally equivalent to the sequential reference VM — same XDP
 * action, same output bytes, same redirect target, and identical final
 * map state — for every application, across flow distributions chosen to
 * maximize hazard pressure, and for randomized branchy ALU programs.
 *
 * This is the correctness claim behind paper section 4.1: the WAR delay
 * buffers, flush-evaluation blocks, atomic primitives and elastic buffers
 * together preserve sequential semantics.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "apps/apps.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "ebpf/builder.hpp"
#include "ebpf/vm.hpp"
#include "hdl/compiler.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace ehdl {
namespace {

using apps::AppSpec;
using ebpf::MapSet;
using ebpf::Program;
using ebpf::Vm;

struct DiffResult
{
    int mismatches = 0;
    bool mapsEqual = false;
    uint64_t flushes = 0;
};

DiffResult
runDifferential(const AppSpec &spec, uint64_t num_flows, int num_packets,
                uint64_t seed, double reverse_fraction)
{
    const hdl::Pipeline pipe = hdl::compile(spec.prog);

    MapSet vm_maps(spec.prog.maps), pipe_maps(spec.prog.maps);
    spec.seedMaps(vm_maps);
    spec.seedMaps(pipe_maps);

    sim::TrafficConfig config;
    config.numFlows = num_flows;
    config.reverseFraction = reverse_fraction;
    config.seed = seed;
    config.ipProto = spec.ipProto;
    sim::TrafficGen gen(config);

    std::vector<net::Packet> packets;
    for (int i = 0; i < num_packets; ++i)
        packets.push_back(gen.next());

    sim::PipeSimConfig sim_config;
    sim_config.inputQueueCapacity = 1u << 20;
    sim::OutcomeLog log;
    sim::PipeSim sim(pipe, pipe_maps, sim_config);
    sim.attachRetireSink(&log);
    for (const net::Packet &pkt : packets)
        sim.offer(pkt);
    sim.drain();
    EXPECT_EQ(sim.stats().completed, static_cast<uint64_t>(num_packets));

    std::map<uint64_t, const sim::PacketOutcome *> by_id;
    for (const sim::PacketOutcome &out : log.outcomes)
        by_id[out.id] = &out;

    Vm vm(spec.prog, vm_maps);
    DiffResult result;
    for (const net::Packet &pkt : packets) {
        net::Packet copy = pkt;
        const ebpf::ExecResult ref = vm.run(copy);
        const sim::PacketOutcome *out = by_id.at(pkt.id);
        const bool same =
            static_cast<uint32_t>(ref.action) ==
                static_cast<uint32_t>(out->action) &&
            copy.bytes() == out->bytes &&
            ref.redirectIfindex == out->redirectIfindex;
        if (!same)
            ++result.mismatches;
    }
    result.mapsEqual = MapSet::equal(vm_maps, pipe_maps);
    result.flushes = sim.stats().flushEvents;
    return result;
}

struct DiffCase
{
    const char *name;
    AppSpec (*make)();
    uint64_t flows;
    double reverse;
};

// The ctest name of a custom-named case carries the printed parameter;
// print the name, not the raw bytes (pointers make those differ per run).
void
PrintTo(const DiffCase &c, std::ostream *os)
{
    *os << c.name;
}

class AppDifferentialTest : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(AppDifferentialTest, PipelineMatchesVm)
{
    const DiffCase &c = GetParam();
    const DiffResult result =
        runDifferential(c.make(), c.flows, 2500, 17, c.reverse);
    EXPECT_EQ(result.mismatches, 0);
    EXPECT_TRUE(result.mapsEqual);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AppDifferentialTest,
    ::testing::Values(
        DiffCase{"toy_many", apps::makeToyCounter, 100, 0.0},
        DiffCase{"toy_single", apps::makeToyCounter, 1, 0.0},
        DiffCase{"firewall_many", apps::makeSimpleFirewall, 200, 0.3},
        DiffCase{"firewall_collide", apps::makeSimpleFirewall, 4, 0.5},
        DiffCase{"router_many", apps::makeRouterIpv4, 500, 0.0},
        DiffCase{"tunnel_many", apps::makeTxIpTunnel, 300, 0.0},
        DiffCase{"dnat_many", apps::makeDnat, 150, 0.0},
        DiffCase{"dnat_collide", apps::makeDnat, 3, 0.0},
        DiffCase{"suricata_many", apps::makeSuricataFilter, 100, 0.0},
        DiffCase{"leaky_many", apps::makeLeakyBucket, 64, 0.0},
        DiffCase{"leaky_collide", apps::makeLeakyBucket, 2, 0.0},
        DiffCase{"leaky_single", apps::makeLeakyBucket, 1, 0.0},
        DiffCase{"elastic_collide", apps::makeElasticDemo, 3, 0.0},
        DiffCase{"elastic_many", apps::makeElasticDemo, 64, 0.0},
        DiffCase{"sampler", apps::makeMonitorSampler, 32, 0.0},
        DiffCase{"l4_lb", apps::makeL4LoadBalancer, 40, 0.0},
        DiffCase{"ipip_decap", apps::makeIpipDecap, 40, 0.0}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return info.param.name;
    });

TEST(Differential, AdversarialSingleFlowStillCorrect)
{
    // The section 5.3 stress case: every packet hits the same map entry.
    const DiffResult result =
        runDifferential(apps::makeLeakyBucket(), 1, 3000, 7, 0.0);
    EXPECT_EQ(result.mismatches, 0);
    EXPECT_TRUE(result.mapsEqual);
    EXPECT_GT(result.flushes, 2000u);  // nearly every packet flushes
}

TEST(Differential, SeedSweepOnHazardHeavyApps)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        for (auto make : {apps::makeLeakyBucket, apps::makeDnat,
                          apps::makeSimpleFirewall}) {
            const AppSpec spec = make();
            const DiffResult result =
                runDifferential(spec, 5 + seed * 3, 800, seed,
                                spec.reverseFraction);
            EXPECT_EQ(result.mismatches, 0)
                << spec.prog.name << " seed " << seed;
            EXPECT_TRUE(result.mapsEqual)
                << spec.prog.name << " seed " << seed;
        }
    }
}

TEST(Differential, SuricataWithSeededBypass)
{
    AppSpec spec = apps::makeSuricataFilter();
    sim::TrafficConfig probe_config;
    probe_config.numFlows = 50;
    sim::TrafficGen probe(probe_config);
    std::vector<net::FlowKey> bypassed;
    for (uint64_t rank = 0; rank < 50; rank += 2)
        bypassed.push_back(probe.flowOf(rank));
    spec.seedMaps = [bypassed](MapSet &maps) {
        apps::seedSuricataBypass(maps, bypassed);
    };
    const DiffResult result = runDifferential(spec, 50, 2000, 5, 0.0);
    EXPECT_EQ(result.mismatches, 0);
    EXPECT_TRUE(result.mapsEqual);
}

/**
 * Random branchy ALU+stack programs: no maps, so this isolates the
 * predication/scheduling machinery from the hazard machinery.
 */
class RandomProgramTest : public ::testing::TestWithParam<uint64_t>
{
};

Program
randomProgram(uint64_t seed)
{
    Rng rng(seed);
    ebpf::ProgramBuilder b("rand");
    // Initialize registers and a few stack slots.
    for (unsigned r = 1; r <= 9; ++r)
        b.mov(r, static_cast<int32_t>(rng.next()));
    for (unsigned s = 1; s <= 4; ++s)
        b.stx(ebpf::MemSize::DW, 10, -8 * static_cast<int16_t>(s), s);

    const unsigned segments = 2 + rng.below(4);
    for (unsigned seg = 0; seg < segments; ++seg) {
        const std::string label = "seg" + std::to_string(seg);
        // Random forward branch over a few ops.
        b.jcond(static_cast<ebpf::JmpOp>(
                    std::array<ebpf::JmpOp, 4>{
                        ebpf::JmpOp::Jeq, ebpf::JmpOp::Jgt,
                        ebpf::JmpOp::Jsgt, ebpf::JmpOp::Jset}[rng.below(4)]),
                1 + rng.below(9), static_cast<int64_t>(rng.below(64)),
                label);
        const unsigned ops = 1 + rng.below(5);
        for (unsigned i = 0; i < ops; ++i) {
            const unsigned dst = 1 + rng.below(9);
            const unsigned src = 1 + rng.below(9);
            switch (rng.below(6)) {
              case 0: b.aluReg(ebpf::AluOp::Add, dst, src); break;
              case 1: b.aluReg(ebpf::AluOp::Xor, dst, src); break;
              case 2: b.alu(ebpf::AluOp::Lsh, dst, rng.below(63)); break;
              case 3: b.stx(ebpf::MemSize::DW, 10,
                            -8 * static_cast<int16_t>(1 + rng.below(4)),
                            dst);
                break;
              case 4: b.ldx(ebpf::MemSize::DW, dst, 10,
                            -8 * static_cast<int16_t>(1 + rng.below(4)));
                break;
              case 5: b.alu32(ebpf::AluOp::Add, dst,
                              static_cast<int32_t>(rng.next()));
                break;
            }
        }
        b.label(label);
    }
    // Fold state into r0 and produce a valid action.
    b.movReg(0, 1);
    for (unsigned r = 2; r <= 9; ++r)
        b.aluReg(ebpf::AluOp::Xor, 0, r);
    b.ldx(ebpf::MemSize::DW, 1, 10, -8);
    b.aluReg(ebpf::AluOp::Xor, 0, 1);
    b.alu(ebpf::AluOp::And, 0, 3);  // action in {0..3}
    b.exit();
    return b.build();
}

TEST_P(RandomProgramTest, PipelineMatchesVm)
{
    const Program prog = randomProgram(GetParam());
    const hdl::Pipeline pipe = hdl::compile(prog);
    MapSet vm_maps(prog.maps), pipe_maps(prog.maps);

    sim::PipeSimConfig config;
    config.inputQueueCapacity = 4096;
    sim::OutcomeLog log;
    sim::PipeSim sim(pipe, pipe_maps, config);
    sim.attachRetireSink(&log);
    Vm vm(prog, vm_maps);

    net::PacketSpec spec;
    for (int i = 1; i <= 32; ++i) {
        net::Packet pkt = net::PacketFactory::build(spec);
        pkt.id = static_cast<uint64_t>(i);
        sim.offer(pkt);
    }
    sim.drain();
    ASSERT_EQ(log.outcomes.size(), 32u);
    net::Packet ref_pkt = net::PacketFactory::build(spec);
    ref_pkt.id = 1;
    const ebpf::ExecResult ref = vm.run(ref_pkt);
    for (const sim::PacketOutcome &out : log.outcomes) {
        EXPECT_EQ(static_cast<uint32_t>(out.action),
                  static_cast<uint32_t>(ref.action))
            << "seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<uint64_t>(0, 60));

/**
 * Random *map-access* programs: lookup -> branch -> a random interleaving
 * of value loads, ALU and value stores on the hit path, update on the
 * miss path. Run under colliding traffic so the hazard machinery (flush
 * windows, speculation parking, forwarding) is exercised combinatorially.
 * Patterns the compiler rejects as unsupported are skipped — the claim
 * under test is "whatever compiles is sequentially correct".
 */
class RandomMapProgramTest : public ::testing::TestWithParam<uint64_t>
{
};

Program
randomMapProgram(uint64_t seed)
{
    Rng rng(seed);
    ebpf::ProgramBuilder b("mapfuzz");
    const uint32_t flows =
        b.addMap({"flows", ebpf::MapKind::Hash, 4, 16, 256});

    // Prologue: bounds check, source address as the flow key.
    b.ldx(ebpf::MemSize::W, 2, 1, 4);
    b.ldx(ebpf::MemSize::W, 6, 1, 0);
    b.movReg(3, 6);
    b.alu(ebpf::AluOp::Add, 3, 34);
    b.jcondReg(ebpf::JmpOp::Jgt, 3, 2, "pass");
    b.ldx(ebpf::MemSize::W, 7, 6, 26);
    b.stx(ebpf::MemSize::W, 10, -4, 7);
    // A second packet-derived value for stores.
    b.ldx(ebpf::MemSize::W, 8, 6, 30);

    b.ldMap(1, flows);
    b.movReg(2, 10);
    b.alu(ebpf::AluOp::Add, 2, -4);
    b.call(1);
    b.jcond(ebpf::JmpOp::Jeq, 0, 0, "miss");

    // Hit path: random interleaving over the two value fields.
    const unsigned ops = 2 + rng.below(7);
    bool loaded3 = false;
    for (unsigned i = 0; i < ops; ++i) {
        switch (rng.below(5)) {
          case 0:
            b.ldx(ebpf::MemSize::DW, 3, 0,
                  static_cast<int16_t>(8 * rng.below(2)));
            loaded3 = true;
            break;
          case 1:
            if (loaded3)
                b.alu(ebpf::AluOp::Add, 3,
                      static_cast<int32_t>(rng.below(1000)));
            break;
          case 2:
            if (loaded3)
                b.aluReg(ebpf::AluOp::Xor, 3, 8);
            break;
          case 3:
            if (loaded3)
                b.stx(ebpf::MemSize::DW, 0,
                      static_cast<int16_t>(8 * rng.below(2)), 3);
            break;
          case 4:
            b.stx(ebpf::MemSize::DW, 0,
                  static_cast<int16_t>(8 * rng.below(2)), 8);
            break;
        }
    }
    b.mov(0, 2);
    b.exit();

    // Miss path: create the record from packet-derived state.
    b.label("miss");
    b.stx(ebpf::MemSize::DW, 10, -24, 8);
    b.mov(3, static_cast<int32_t>(rng.below(100000)));
    b.stx(ebpf::MemSize::DW, 10, -16, 3);
    b.ldMap(1, flows);
    b.movReg(2, 10);
    b.alu(ebpf::AluOp::Add, 2, -4);
    b.movReg(3, 10);
    b.alu(ebpf::AluOp::Add, 3, -24);
    b.mov(4, 0);
    b.call(2);
    b.mov(0, 2);
    b.exit();

    b.label("pass");
    b.mov(0, 2);
    b.exit();
    return b.build();
}

TEST_P(RandomMapProgramTest, HazardMachineryPreservesSequentialSemantics)
{
    const Program prog = randomMapProgram(GetParam());
    hdl::Pipeline pipe;
    try {
        pipe = hdl::compile(prog);
    } catch (const FatalError &e) {
        // The compiler may reject unsupported access patterns; that is a
        // documented, fail-closed outcome, not a correctness bug.
        GTEST_SKIP() << "pattern rejected: " << e.what();
    }

    MapSet vm_maps(prog.maps), pipe_maps(prog.maps);
    sim::TrafficConfig config;
    config.numFlows = 2 + GetParam() % 5;  // collision-heavy
    config.seed = GetParam() * 31 + 7;
    sim::TrafficGen gen(config);
    std::vector<net::Packet> packets;
    for (int i = 0; i < 600; ++i)
        packets.push_back(gen.next());

    sim::PipeSimConfig sim_config;
    sim_config.inputQueueCapacity = 1u << 16;
    sim::OutcomeLog log;
    sim::PipeSim sim(pipe, pipe_maps, sim_config);
    sim.attachRetireSink(&log);
    for (const net::Packet &pkt : packets)
        sim.offer(pkt);
    sim.drain();

    Vm vm(prog, vm_maps);
    std::map<uint64_t, const sim::PacketOutcome *> by_id;
    for (const sim::PacketOutcome &out : log.outcomes)
        by_id[out.id] = &out;
    for (const net::Packet &pkt : packets) {
        net::Packet copy = pkt;
        const ebpf::ExecResult ref = vm.run(copy);
        ASSERT_EQ(static_cast<uint32_t>(ref.action),
                  static_cast<uint32_t>(by_id.at(pkt.id)->action));
    }
    EXPECT_TRUE(MapSet::equal(vm_maps, pipe_maps))
        << "seed " << GetParam() << "\npipe:\n"
        << pipe_maps.dump().substr(0, 600) << "\nvm:\n"
        << vm_maps.dump().substr(0, 600);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMapProgramTest,
                         ::testing::Range<uint64_t>(0, 80));

}  // namespace
}  // namespace ehdl
