/**
 * @file
 * Reference VM tests: ALU semantics (64/32-bit, edge values), tagged
 * pointer rules, memory access and traps, helper functions, and the
 * properties that make pipeline replay deterministic (stateless prandom,
 * arrival-time clock).
 */

#include <gtest/gtest.h>

#include <ostream>

#include "common/bitops.hpp"
#include "ebpf/asm.hpp"
#include "ebpf/builder.hpp"
#include "ebpf/helpers.hpp"
#include "ebpf/isa.hpp"
#include "ebpf/vm.hpp"
#include "net/headers.hpp"

namespace ehdl::ebpf {
namespace {

/** Run a program that computes r0 over a default packet. */
uint64_t
runR0(Program prog, net::Packet *pkt_out = nullptr)
{
    MapSet maps(prog.maps);
    Vm vm(prog, maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    pkt.id = 1;
    const ExecResult result = vm.run(pkt);
    EXPECT_FALSE(result.trapped) << result.trapReason;
    if (pkt_out != nullptr)
        *pkt_out = pkt;
    return result.action == XdpAction::Aborted && result.trapped
               ? ~0ULL
               : static_cast<uint64_t>(result.action);
}

/** Run a program and return the full result. */
ExecResult
runProgram(const Program &prog, MapSet &maps, net::Packet &pkt)
{
    Vm vm(prog, maps);
    return vm.run(pkt);
}

/** r0 = a op b (64-bit), returned as the exit code's low bits is too
 *  narrow, so store to a map instead. */
uint64_t
evalAlu64(AluOp op, uint64_t a, uint64_t b)
{
    ProgramBuilder builder("alu");
    const uint32_t map = builder.addMap({"out", MapKind::Array, 4, 8, 1});
    builder.lddw(6, static_cast<int64_t>(a));
    builder.lddw(7, static_cast<int64_t>(b));
    builder.aluReg(op, 6, 7);
    builder.mov(3, 0);
    builder.stx(MemSize::W, 10, -4, 3);
    builder.ldMap(1, map);
    builder.movReg(2, 10);
    builder.alu(AluOp::Add, 2, -4);
    builder.call(kHelperMapLookup);
    builder.stx(MemSize::DW, 0, 0, 6);
    builder.mov(0, 2);
    builder.exit();
    Program prog = builder.build();
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    const ExecResult result = runProgram(prog, maps, pkt);
    EXPECT_FALSE(result.trapped) << result.trapReason;
    return loadLe<uint64_t>(maps.at(0).valueAt(0));
}

struct AluCase
{
    AluOp op;
    uint64_t a, b, expect;
};

// Names the case by its contents: gtest's default printer dumps the raw
// object bytes, padding included, so the discovered ctest names would
// change from build to build.
void
PrintTo(const AluCase &c, std::ostream *os)
{
    *os << aluOpName(c.op) << " 0x" << std::hex << c.a << " 0x" << c.b
        << std::dec;
}

class Alu64Test : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(Alu64Test, Evaluates)
{
    const AluCase &c = GetParam();
    EXPECT_EQ(evalAlu64(c.op, c.a, c.b), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, Alu64Test,
    ::testing::Values(
        AluCase{AluOp::Add, 5, 7, 12},
        AluCase{AluOp::Add, ~0ULL, 1, 0},
        AluCase{AluOp::Sub, 5, 7, static_cast<uint64_t>(-2)},
        AluCase{AluOp::Mul, 0xffffffffULL, 0xffffffffULL,
                0xfffffffe00000001ULL},
        AluCase{AluOp::Div, 100, 7, 14},
        AluCase{AluOp::Div, 100, 0, 0},            // div-by-zero -> 0
        AluCase{AluOp::Mod, 100, 7, 2},
        AluCase{AluOp::Mod, 100, 0, 100},          // mod-by-zero -> dst
        AluCase{AluOp::Or, 0xf0, 0x0f, 0xff},
        AluCase{AluOp::And, 0xff00, 0x0ff0, 0x0f00},
        AluCase{AluOp::Xor, 0xff, 0x0f, 0xf0},
        AluCase{AluOp::Lsh, 1, 63, 1ULL << 63},
        AluCase{AluOp::Lsh, 1, 64, 1},             // shift amount masked
        AluCase{AluOp::Rsh, 1ULL << 63, 63, 1},
        AluCase{AluOp::Arsh, static_cast<uint64_t>(-8), 1,
                static_cast<uint64_t>(-4)},
        AluCase{AluOp::Arsh, 8, 1, 4}));

TEST(Vm, Alu32ZeroExtends)
{
    ProgramBuilder b("alu32");
    b.lddw(1, static_cast<int64_t>(0xffffffffffffffffULL));
    b.alu32(AluOp::Add, 1, 1);  // w1 = 0xffffffff + 1 = 0 (32-bit wrap)
    b.jcond(JmpOp::Jeq, 1, 0, "zero");
    b.mov(0, 1);
    b.exit();
    b.label("zero");
    b.mov(0, 2);
    b.exit();
    EXPECT_EQ(runR0(b.build()), 2u);
}

TEST(Vm, NegAndEndian)
{
    EXPECT_EQ(evalAlu64(AluOp::Sub, 0, 5), static_cast<uint64_t>(-5));
    ProgramBuilder b("end");
    const uint32_t map = b.addMap({"out", MapKind::Array, 4, 8, 1});
    b.lddw(6, 0x1234);
    b.endian(true, 6, 16);  // be16: 0x1234 -> 0x3412 on LE
    b.mov(3, 0);
    b.stx(MemSize::W, 10, -4, 3);
    b.ldMap(1, map);
    b.movReg(2, 10);
    b.alu(AluOp::Add, 2, -4);
    b.call(kHelperMapLookup);
    b.stx(MemSize::DW, 0, 0, 6);
    b.mov(0, 2);
    b.exit();
    Program prog = b.build();
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    runProgram(prog, maps, pkt);
    EXPECT_EQ(loadLe<uint64_t>(maps.at(0).valueAt(0)), 0x3412u);
}

TEST(Vm, JumpConditionSweep)
{
    struct JmpCase
    {
        const char *cond;
        int64_t a, b;
        bool taken;
    };
    const JmpCase cases[] = {
        {"==", 5, 5, true},    {"==", 5, 6, false},
        {"!=", 5, 6, true},    {">", 6, 5, true},
        {">", 5, 6, false},    {">=", 5, 5, true},
        {"<", 5, 6, true},     {"<=", 6, 5, false},
        {"s>", -1, -2, true},  {"s>", 1, -1, true},
        {"s<", -2, -1, true},  {"s<=", -1, -1, true},
        {"s>=", -1, 1, false}, {"&", 6, 2, true},
        {"&", 4, 2, false},
    };
    for (const JmpCase &c : cases) {
        std::string text = "r1 = " + std::to_string(c.a) + "\n" +
                           "r2 = " + std::to_string(c.b) + "\n" +
                           "if r1 " + c.cond + " r2 goto yes\n" +
                           "r0 = 0\nexit\nyes:\nr0 = 1\nexit\n";
        Program prog = assemble(text);
        MapSet maps(prog.maps);
        net::PacketSpec spec;
        net::Packet pkt = net::PacketFactory::build(spec);
        const ExecResult result = runProgram(prog, maps, pkt);
        EXPECT_EQ(result.action == XdpAction::Drop, c.taken)
            << c.a << " " << c.cond << " " << c.b;
    }
}

TEST(Vm, Jmp32ComparesLow32)
{
    ProgramBuilder b("j32");
    b.lddw(1, static_cast<int64_t>(0xffffffff00000005ULL));
    Insn insn;
    insn.opcode = makeJmpOpcode(InsnClass::Jmp32, JmpOp::Jeq, SrcKind::K);
    insn.dst = 1;
    insn.imm = 5;
    insn.off = 2;  // to "yes"
    // Manual placement: mov r0,0; exit; yes: mov r0,2; exit.
    Program prog;
    prog.name = "j32";
    prog.insns.push_back(b.build().insns[0]);
    prog.insns.push_back(insn);
    ProgramBuilder tail("t");
    tail.mov(0, 0);
    tail.exit();
    tail.mov(0, 2);
    tail.exit();
    for (const Insn &i : tail.build().insns)
        prog.insns.push_back(i);
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    EXPECT_EQ(runProgram(prog, maps, pkt).action, XdpAction::Pass);
}

TEST(Vm, PacketLoadStore)
{
    Program prog = assemble(R"(
        r6 = *(u32 *)(r1 + 0)
        r2 = *(u8 *)(r6 + 0)
        r2 += 1
        *(u8 *)(r6 + 0) = r2
        r0 = 2
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    const uint8_t before = pkt.at(0);
    runProgram(prog, maps, pkt);
    EXPECT_EQ(pkt.at(0), static_cast<uint8_t>(before + 1));
}

TEST(Vm, PacketBoundsTrap)
{
    Program prog = assemble(R"(
        r6 = *(u32 *)(r1 + 0)
        r2 = *(u32 *)(r6 + 4096)
        r0 = 2
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    const ExecResult result = runProgram(prog, maps, pkt);
    EXPECT_TRUE(result.trapped);
    EXPECT_EQ(result.action, XdpAction::Aborted);
}

TEST(Vm, PacketEndComparison)
{
    Program prog = assemble(R"(
        r2 = *(u32 *)(r1 + 4)
        r1 = *(u32 *)(r1 + 0)
        r3 = r1
        r3 += 64
        if r3 > r2 goto small
        r0 = 3
        exit
        small:
        r0 = 1
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec64;
    spec64.totalLen = 64;
    net::Packet p64 = net::PacketFactory::build(spec64);
    EXPECT_EQ(runProgram(prog, maps, p64).action, XdpAction::Tx);
    net::PacketSpec spec63;
    spec63.totalLen = 63;
    net::Packet p63 = net::PacketFactory::build(spec63);
    EXPECT_EQ(runProgram(prog, maps, p63).action, XdpAction::Drop);
}

TEST(Vm, StackSpillReloadOfPointer)
{
    // Spill the packet pointer, reload it, dereference.
    Program prog = assemble(R"(
        r6 = *(u32 *)(r1 + 0)
        *(u64 *)(r10 - 8) = r6
        r7 = *(u64 *)(r10 - 8)
        r0 = *(u8 *)(r7 + 12)
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    const ExecResult result = runProgram(prog, maps, pkt);
    EXPECT_FALSE(result.trapped) << result.trapReason;
}

TEST(Vm, StackBoundsTrap)
{
    Program prog = assemble(R"(
        r2 = *(u64 *)(r10 - 520)
        r0 = 2
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    EXPECT_TRUE(runProgram(prog, maps, pkt).trapped);
}

TEST(Vm, MapLookupMissAndHit)
{
    Program prog = assemble(R"(
        .map m hash 4 8 4
        r3 = 77
        *(u32 *)(r10 - 4) = r3
        r1 = map[m]
        r2 = r10
        r2 += -4
        call 1
        if r0 == 0 goto miss
        r0 = 3
        exit
        miss:
        r0 = 1
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    EXPECT_EQ(runProgram(prog, maps, pkt).action, XdpAction::Drop);
    std::vector<uint8_t> key(4), value(8, 1);
    storeLe<uint32_t>(key.data(), 77);
    maps.at(0).hostUpdate(key, value);
    net::Packet pkt2 = net::PacketFactory::build(spec);
    EXPECT_EQ(runProgram(prog, maps, pkt2).action, XdpAction::Tx);
}

TEST(Vm, MapUpdateDeleteFromDataPlane)
{
    Program prog = assemble(R"(
        .map m hash 4 8 4
        r3 = 5
        *(u32 *)(r10 - 4) = r3
        r3 = 99
        *(u64 *)(r10 - 16) = r3
        r1 = map[m]
        r2 = r10
        r2 += -4
        r3 = r10
        r3 += -16
        r4 = 0
        call 2
        r0 = 2
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    EXPECT_FALSE(runProgram(prog, maps, pkt).trapped);
    std::vector<uint8_t> key(4);
    storeLe<uint32_t>(key.data(), 5);
    auto got = maps.at(0).hostLookup(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(loadLe<uint64_t>(got->data()), 99u);
}

TEST(Vm, AtomicAddOnMapValue)
{
    Program prog = assemble(R"(
        .map stats array 4 8 1
        r3 = 0
        *(u32 *)(r10 - 4) = r3
        r1 = map[stats]
        r2 = r10
        r2 += -4
        call 1
        if r0 == 0 goto out
        r2 = 7
        lock *(u64 *)(r0 + 0) += r2
        out:
        r0 = 2
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    for (int i = 0; i < 3; ++i) {
        net::Packet pkt = net::PacketFactory::build(spec);
        runProgram(prog, maps, pkt);
    }
    EXPECT_EQ(loadLe<uint64_t>(maps.at(0).valueAt(0)), 21u);
}

TEST(Vm, NullMapValueDerefTraps)
{
    Program prog = assemble(R"(
        .map m hash 4 8 4
        r3 = 1
        *(u32 *)(r10 - 4) = r3
        r1 = map[m]
        r2 = r10
        r2 += -4
        call 1
        r2 = *(u64 *)(r0 + 0)
        r0 = 2
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    EXPECT_TRUE(runProgram(prog, maps, pkt).trapped);
}

TEST(Vm, KtimeReturnsArrivalTime)
{
    Program prog = assemble(R"(
        call 5
        if r0 == 1234 goto yes
        r0 = 1
        exit
        yes:
        r0 = 2
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    pkt.arrivalNs = 1234;
    EXPECT_EQ(runProgram(prog, maps, pkt).action, XdpAction::Pass);
}

TEST(Vm, PrandomDeterministicPerPacket)
{
    Program prog = assemble(R"(
        .map out array 4 8 1
        call 7
        r6 = r0
        r3 = 0
        *(u32 *)(r10 - 4) = r3
        r1 = map[out]
        r2 = r10
        r2 += -4
        call 1
        *(u64 *)(r0 + 0) = r6
        r0 = 2
        exit
    )");
    auto run_with_id = [&prog](uint64_t id) {
        MapSet maps(prog.maps);
        net::PacketSpec spec;
        net::Packet pkt = net::PacketFactory::build(spec);
        pkt.id = id;
        Vm vm(prog, maps);
        vm.run(pkt);
        return loadLe<uint64_t>(maps.at(0).valueAt(0));
    };
    EXPECT_EQ(run_with_id(5), run_with_id(5));   // replay-stable
    EXPECT_NE(run_with_id(5), run_with_id(6));   // varies across packets
}

TEST(Vm, RedirectHelper)
{
    Program prog = assemble(R"(
        r1 = 9
        r2 = 0
        call 23
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    const ExecResult result = runProgram(prog, maps, pkt);
    EXPECT_EQ(result.action, XdpAction::Redirect);
    EXPECT_EQ(result.redirectIfindex, 9u);
}

TEST(Vm, AdjustHeadGrowAndStalePointer)
{
    Program prog = assemble(R"(
        r6 = r1
        r7 = *(u32 *)(r1 + 0)
        r2 = -4
        call 44
        if r0 != 0 goto fail
        r1 = *(u32 *)(r6 + 0)
        r3 = *(u8 *)(r1 + 0)
        r0 = 3
        exit
        fail:
        r0 = 1
        exit
    )");
    // r1 must be the ctx for adjust_head; rebuild with correct regs.
    Program fixed = assemble(R"(
        r6 = r1
        r2 = -4
        call 44
        if r0 != 0 goto fail
        r1 = *(u32 *)(r6 + 0)
        r3 = *(u8 *)(r1 + 0)
        r0 = 3
        exit
        fail:
        r0 = 1
        exit
    )");
    (void)prog;
    MapSet maps(fixed.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    const uint32_t before = pkt.size();
    const ExecResult result = runProgram(fixed, maps, pkt);
    EXPECT_FALSE(result.trapped) << result.trapReason;
    EXPECT_EQ(result.action, XdpAction::Tx);
    EXPECT_EQ(pkt.size(), before + 4);

    // Using a pre-adjust pointer afterwards must trap.
    Program stale = assemble(R"(
        r6 = r1
        r7 = *(u32 *)(r1 + 0)
        r1 = r6
        r2 = -4
        call 44
        r3 = *(u8 *)(r7 + 0)
        r0 = 2
        exit
    )");
    MapSet maps2(stale.maps);
    net::Packet pkt2 = net::PacketFactory::build(spec);
    EXPECT_TRUE(runProgram(stale, maps2, pkt2).trapped);
}

TEST(Vm, AdjustTailTruncatesAndInvalidates)
{
    Program prog = assemble(R"(
        r6 = r1
        r7 = *(u32 *)(r1 + 0)
        r2 = -20
        call 65
        if r0 != 0 goto fail
        r0 = 2
        exit
        fail:
        r0 = 1
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    spec.totalLen = 100;
    net::Packet pkt = net::PacketFactory::build(spec);
    const ExecResult result = runProgram(prog, maps, pkt);
    EXPECT_EQ(result.action, XdpAction::Pass);
    EXPECT_EQ(pkt.size(), 80u);

    // Growing beyond tailroom fails gracefully.
    Program grow = assemble(R"(
        r2 = 1000
        call 65
        if r0 != 0 goto fail
        r0 = 2
        exit
        fail:
        r0 = 1
        exit
    )");
    MapSet maps2(grow.maps);
    net::Packet pkt2 = net::PacketFactory::build(spec);
    EXPECT_EQ(runProgram(grow, maps2, pkt2).action, XdpAction::Drop);

    // Stale pointers after adjust_tail trap.
    Program stale = assemble(R"(
        r6 = r1
        r7 = *(u32 *)(r1 + 0)
        r1 = r6
        r2 = -8
        call 65
        r3 = *(u8 *)(r7 + 0)
        r0 = 2
        exit
    )");
    MapSet maps3(stale.maps);
    net::Packet pkt3 = net::PacketFactory::build(spec);
    EXPECT_TRUE(runProgram(stale, maps3, pkt3).trapped);
}

TEST(Vm, PacketLengthViaPointerDifference)
{
    Program prog = assemble(R"(
        r2 = *(u32 *)(r1 + 4)
        r1 = *(u32 *)(r1 + 0)
        r3 = r2
        r3 -= r1
        if r3 == 90 goto yes
        r0 = 1
        exit
        yes:
        r0 = 2
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    spec.totalLen = 90;
    net::Packet pkt = net::PacketFactory::build(spec);
    EXPECT_EQ(runProgram(prog, maps, pkt).action, XdpAction::Pass);
}

TEST(Vm, CallerSavedRegistersClobbered)
{
    Program prog = assemble(R"(
        r3 = 55
        call 5
        r0 = r3
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    // Reading clobbered r3 after the call is a trap-free VM behaviour?
    // No: the VM zeroes it to a scalar; exit code is 0 -> Aborted.
    const ExecResult result = runProgram(prog, maps, pkt);
    EXPECT_EQ(result.action, XdpAction::Aborted);
}

TEST(Vm, CalleeSavedSurviveCalls)
{
    Program prog = assemble(R"(
        r6 = 3
        call 5
        r0 = r6
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    EXPECT_EQ(runProgram(prog, maps, pkt).action, XdpAction::Tx);
}

TEST(Vm, InstructionBudgetStopsRunaway)
{
    // Infinite loop: must abort via the budget, not hang.
    ProgramBuilder b("inf");
    b.mov(1, 0);
    b.label("top");
    b.jmp("top");
    b.exit();
    Program prog = b.build();
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    Vm vm(prog, maps);
    const ExecResult result = vm.run(pkt, 1000);
    EXPECT_TRUE(result.trapped);
    EXPECT_EQ(result.insnsExecuted, 1001u);
}

TEST(Vm, InsnCountTracksTakenPath)
{
    Program prog = assemble(R"(
        r1 = 1
        if r1 == 1 goto skip
        r2 = 2
        r2 = 3
        r2 = 4
        skip:
        r0 = 2
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    Vm vm(prog, maps);
    const ExecResult result = vm.run(pkt);
    EXPECT_EQ(result.insnsExecuted, 4u);  // mov, jcond, mov, exit
}

TEST(Vm, CsumDiffMatchesManualSum)
{
    Program prog = assemble(R"(
        .map out array 4 8 1
        r3 = 0x1234
        *(u64 *)(r10 - 8) = r3
        r1 = r10
        r1 += -8
        r2 = 0
        r3 = r10
        r3 += -8
        r4 = 2
        r5 = 0
        call 28
        r6 = r0
        r3 = 0
        *(u32 *)(r10 - 12) = r3
        r1 = map[out]
        r2 = r10
        r2 += -12
        call 1
        *(u64 *)(r0 + 0) = r6
        r0 = 2
        exit
    )");
    MapSet maps(prog.maps);
    net::PacketSpec spec;
    net::Packet pkt = net::PacketFactory::build(spec);
    const ExecResult result = runProgram(prog, maps, pkt);
    EXPECT_FALSE(result.trapped) << result.trapReason;
    // Sum over the two bytes {0x34, 0x12} (LE store) = 0x3412.
    EXPECT_EQ(loadLe<uint64_t>(maps.at(0).valueAt(0)), 0x3412u);
}

}  // namespace
}  // namespace ehdl::ebpf
