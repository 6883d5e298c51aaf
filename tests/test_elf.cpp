/**
 * @file
 * ELF object tests: write/load round trips preserving instructions, maps
 * and relocations; structural validation; and an end-to-end check that a
 * program loaded from ELF compiles and runs identically.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <map>

#include "apps/apps.hpp"
#include "common/logging.hpp"
#include "ebpf/elf.hpp"
#include "ebpf/vm.hpp"
#include "hdl/compiler.hpp"
#include "net/headers.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

#ifndef EHDL_ELF_DIR
#error "EHDL_ELF_DIR must point at tests/elf"
#endif

namespace ehdl::ebpf {
namespace {

void
expectSamePrograms(const Program &a, const Program &b)
{
    ASSERT_EQ(a.insns.size(), b.insns.size());
    for (size_t i = 0; i < a.insns.size(); ++i) {
        EXPECT_EQ(a.insns[i].opcode, b.insns[i].opcode) << "insn " << i;
        EXPECT_EQ(a.insns[i].dst, b.insns[i].dst) << "insn " << i;
        EXPECT_EQ(a.insns[i].off, b.insns[i].off) << "insn " << i;
        EXPECT_EQ(a.insns[i].imm, b.insns[i].imm) << "insn " << i;
        EXPECT_EQ(a.insns[i].isMapLoad, b.insns[i].isMapLoad)
            << "insn " << i;
    }
    ASSERT_EQ(a.maps.size(), b.maps.size());
    for (size_t m = 0; m < a.maps.size(); ++m) {
        EXPECT_EQ(a.maps[m].name, b.maps[m].name);
        EXPECT_EQ(a.maps[m].kind, b.maps[m].kind);
        EXPECT_EQ(a.maps[m].keySize, b.maps[m].keySize);
        EXPECT_EQ(a.maps[m].valueSize, b.maps[m].valueSize);
        EXPECT_EQ(a.maps[m].maxEntries, b.maps[m].maxEntries);
    }
}

TEST(Elf, RoundTripToyCounter)
{
    const Program prog = apps::makeToyCounter().prog;
    const std::vector<uint8_t> object = writeElf(prog);
    EXPECT_GT(object.size(), 64u);
    EXPECT_EQ(object[0], 0x7f);
    const Program loaded = loadElf(object, prog.name);
    expectSamePrograms(prog, loaded);
}

TEST(Elf, RoundTripAllApps)
{
    std::vector<apps::AppSpec> all = apps::paperApps();
    all.push_back(apps::makeLeakyBucket());
    all.push_back(apps::makeMonitorSampler());
    for (const apps::AppSpec &spec : all) {
        const Program loaded =
            loadElf(writeElf(spec.prog), spec.prog.name);
        expectSamePrograms(spec.prog, loaded);
    }
}

TEST(Elf, RelocationsRestoreMapReferences)
{
    const Program prog = apps::makeDnat().prog;  // two maps
    const Program loaded = loadElf(writeElf(prog), "dnat");
    unsigned map_loads = 0;
    for (const Insn &insn : loaded.insns)
        map_loads += insn.isMapLoad ? 1 : 0;
    EXPECT_GE(map_loads, 4u);
    EXPECT_EQ(loaded.maps[0].name, "nat");
    EXPECT_EQ(loaded.maps[1].name, "rnat");
}

TEST(Elf, DefaultNameComesFromSection)
{
    const Program prog = apps::makeToyCounter().prog;
    const Program loaded = loadElf(writeElf(prog));
    EXPECT_EQ(loaded.name, "xdp");
}

TEST(Elf, LoadedProgramRunsIdentically)
{
    const apps::AppSpec spec = apps::makeSimpleFirewall();
    const Program loaded = loadElf(writeElf(spec.prog), "fw");

    MapSet maps_a(spec.prog.maps), maps_b(loaded.maps);
    Vm vm_a(spec.prog, maps_a), vm_b(loaded, maps_b);
    net::PacketSpec pkt_spec;
    pkt_spec.flow = {0x0a000001, 0xc0a80001, 4000, 53, net::kIpProtoUdp};
    for (int i = 0; i < 20; ++i) {
        net::Packet p1 = net::PacketFactory::build(pkt_spec);
        net::Packet p2 = net::PacketFactory::build(pkt_spec);
        const ExecResult a = vm_a.run(p1);
        const ExecResult b = vm_b.run(p2);
        EXPECT_EQ(static_cast<uint32_t>(a.action),
                  static_cast<uint32_t>(b.action));
    }
    EXPECT_TRUE(MapSet::equal(maps_a, maps_b));
}

TEST(Elf, LoadedProgramCompilesToSamePipeline)
{
    const Program prog = apps::makeRouterIpv4().prog;
    const Program loaded = loadElf(writeElf(prog), prog.name);
    const hdl::Pipeline a = hdl::compile(prog);
    const hdl::Pipeline b = hdl::compile(loaded);
    EXPECT_EQ(a.numStages(), b.numStages());
    EXPECT_EQ(a.flushBlocks.size(), b.flushBlocks.size());
    EXPECT_EQ(a.mapPorts.size(), b.mapPorts.size());
}

TEST(Elf, RejectsGarbage)
{
    EXPECT_THROW(loadElf({1, 2, 3, 4}), FatalError);
    std::vector<uint8_t> bad(128, 0);
    std::memcpy(bad.data(), "\x7f"
                            "ELF",
                4);
    bad[4] = 1;  // 32-bit: unsupported
    EXPECT_THROW(loadElf(bad), FatalError);
}

TEST(Elf, RejectsTruncatedObject)
{
    std::vector<uint8_t> object = writeElf(apps::makeToyCounter().prog);
    object.resize(object.size() / 2);
    EXPECT_THROW(loadElf(object), FatalError);
}

TEST(Elf, MissingSectionNameFails)
{
    const std::vector<uint8_t> object =
        writeElf(apps::makeToyCounter().prog);
    EXPECT_THROW(loadElf(object, "", "no_such_section"), FatalError);
}

std::vector<uint8_t>
readObject(const std::string &file)
{
    std::ifstream in(std::string(EHDL_ELF_DIR) + "/" + file,
                     std::ios::binary);
    EXPECT_TRUE(in) << file;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

// tests/elf/xdp_count.o comes from llvm-mc, which (like llc) emits an
// empty .text section ahead of the xdp section. With no section name the
// loader must skip it and take the section that holds the code.
TEST(Elf, LlvmObjectSkipsEmptyTextSection)
{
    const Program prog = loadElf(readObject("xdp_count.o"));
    EXPECT_EQ(prog.name, "xdp");
    EXPECT_EQ(prog.size(), 11u);
    ASSERT_EQ(prog.maps.size(), 1u);
    EXPECT_EQ(prog.maps[0].name, "counters");
    EXPECT_EQ(prog.maps[0].kind, MapKind::Array);
    EXPECT_EQ(prog.maps[0].valueSize, 8u);
}

// The same object through the reference VM and both pipeline engines:
// per-packet verdicts and the final counter agree three ways.
TEST(Elf, LlvmObjectRunsThreeWay)
{
    const Program prog = loadElf(readObject("xdp_count.o"));
    const hdl::Pipeline pipe = hdl::compile(prog);

    sim::TrafficConfig traffic;
    traffic.numFlows = 16;
    sim::TrafficGen gen(traffic);
    std::vector<net::Packet> packets;
    for (int i = 0; i < 200; ++i)
        packets.push_back(gen.next());

    MapSet vm_maps(prog.maps);
    Vm vm(prog, vm_maps);
    std::map<uint64_t, XdpAction> expected;
    for (const net::Packet &pkt : packets) {
        net::Packet copy = pkt;
        expected[pkt.id] = vm.run(copy).action;
    }

    for (const sim::SimEngine engine :
         {sim::SimEngine::Interp, sim::SimEngine::Aot}) {
        MapSet maps(prog.maps);
        sim::PipeSimConfig config;
        config.engine = engine;
        sim::OutcomeLog log;
        sim::PipeSim sim(pipe, maps, config);
        sim.attachRetireSink(&log);
        for (const net::Packet &pkt : packets)
            sim.offer(pkt);
        sim.drain();
        ASSERT_EQ(log.outcomes.size(), packets.size());
        for (const sim::PacketOutcome &out : log.outcomes)
            EXPECT_EQ(static_cast<uint32_t>(out.action),
                      static_cast<uint32_t>(expected.at(out.id)));
        EXPECT_TRUE(MapSet::equal(vm_maps, maps));
    }
}

}  // namespace
}  // namespace ehdl::ebpf
