#include "apps/apps.hpp"

#include <utility>

#include "common/bitops.hpp"
#include "common/logging.hpp"
#include "ebpf/builder.hpp"
#include "ebpf/helpers.hpp"

namespace ehdl::apps {

using ebpf::AluOp;
using ebpf::JmpOp;
using ebpf::MapDef;
using ebpf::MapKind;
using ebpf::MemSize;
using ebpf::ProgramBuilder;
using ebpf::XdpAction;

namespace {

// Register aliases for readability.
constexpr unsigned R0 = 0, R1 = 1, R2 = 2, R3 = 3, R4 = 4, R5 = 5, R6 = 6,
                   R7 = 7, R8 = 8, R9 = 9, FP = 10;

// Wire offsets (Ethernet at 0, IPv4 at 14, L4 at 34).
constexpr int16_t kOffEthType = 12;
constexpr int16_t kOffIpTtl = 22;
constexpr int16_t kOffIpProto = 23;
constexpr int16_t kOffIpCheck = 24;
constexpr int16_t kOffIpSrc = 26;
constexpr int16_t kOffIpDst = 30;
constexpr int16_t kOffSport = 34;
constexpr int16_t kOffDport = 36;
constexpr int16_t kOffUdpCsum = 40;

/**
 * Standard prologue: rData = ctx->data, rEnd = ctx->data_end, then
 * branch to @p fail when data + min_len > data_end (scratch uses R3).
 */
void
prologue(ProgramBuilder &b, unsigned r_data, unsigned r_end,
         int64_t min_len, const std::string &fail)
{
    b.ldx(MemSize::W, r_end, R1, 4);   // data_end
    b.ldx(MemSize::W, r_data, R1, 0);  // data
    b.movReg(R3, r_data);
    b.alu(AluOp::Add, R3, min_len);
    b.jcondReg(JmpOp::Jgt, R3, r_end, fail);
}

/** rT = big-endian compose of the EtherType bytes (scratch R5). */
void
loadEthType(ProgramBuilder &b, unsigned rt, unsigned r_data)
{
    b.ldx(MemSize::B, rt, r_data, kOffEthType);
    b.alu(AluOp::Lsh, rt, 8);
    b.ldx(MemSize::B, R5, r_data, kOffEthType + 1);
    b.aluReg(AluOp::Or, rt, R5);
}

/** Fold @p reg (a 32-bit one's-complement sum) to 16 bits via @p scratch. */
void
csumFold(ProgramBuilder &b, unsigned reg, unsigned scratch)
{
    for (int i = 0; i < 2; ++i) {
        b.movReg(scratch, reg);
        b.alu(AluOp::Rsh, scratch, 16);
        b.alu(AluOp::And, reg, 0xffff);
        b.aluReg(AluOp::Add, reg, scratch);
    }
}

/** Wire bytes of a 5-tuple as the firewall/suricata programs key them. */
std::vector<uint8_t>
tupleKeyBytes(const net::FlowKey &flow)
{
    std::vector<uint8_t> key(16, 0);
    storeBe<uint32_t>(key.data() + 0, flow.srcIp);
    storeBe<uint32_t>(key.data() + 4, flow.dstIp);
    storeBe<uint16_t>(key.data() + 8, flow.srcPort);
    storeBe<uint16_t>(key.data() + 10, flow.dstPort);
    // key[12..15] stays zero (padding).
    return key;
}

}  // namespace

// ---------------------------------------------------------------------
// Toy counter (Listing 1 / Listing 2 / Figure 8)
// ---------------------------------------------------------------------

AppSpec
makeToyCounter()
{
    ProgramBuilder b("toy_counter");
    const uint32_t stats =
        b.addMap({"stats", MapKind::Array, 4, 8, 16});

    // r2 = data_end; r1 = data; key = 0.
    b.ldx(MemSize::W, R2, R1, 4);
    b.ldx(MemSize::W, R1, R1, 0);
    b.mov(R3, 0);
    b.stx(MemSize::W, FP, -4, R3);
    // Bounds: data + 14 > data_end -> drop.
    b.movReg(R4, R1);
    b.alu(AluOp::Add, R4, 14);
    b.jcondReg(JmpOp::Jgt, R4, R2, "drop");
    // h_proto (big-endian compose, mirroring Listing 2's byte loads).
    b.ldx(MemSize::B, R2, R1, kOffEthType);
    b.ldx(MemSize::B, R1, R1, kOffEthType + 1);
    b.alu(AluOp::Lsh, R2, 8);
    b.aluReg(AluOp::Or, R2, R1);
    b.jcond(JmpOp::Jeq, R2, net::kEthPIpv6, "v6");
    b.jcond(JmpOp::Jeq, R2, net::kEthPArp, "arp");
    b.jcond(JmpOp::Jne, R2, net::kEthPIp, "lookup");
    b.mov(R1, 1);
    b.stx(MemSize::W, FP, -4, R1);
    b.jmp("lookup");
    b.label("v6");
    b.mov(R1, 2);
    b.stx(MemSize::W, FP, -4, R1);
    b.jmp("lookup");
    b.label("arp");
    b.mov(R1, 3);
    b.stx(MemSize::W, FP, -4, R1);
    b.label("lookup");
    b.ldMap(R1, stats);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -4);
    b.call(ebpf::kHelperMapLookup);
    b.movReg(R1, R0);
    b.mov(R0, 3);  // XDP_TX
    b.jcond(JmpOp::Jeq, R1, 0, "out");
    b.mov(R2, 1);
    b.atomicAdd(MemSize::DW, R1, 0, R2);
    b.label("out");
    b.exit();
    b.label("drop");
    b.mov(R0, 1);
    b.exit();

    AppSpec spec;
    spec.prog = b.build();
    spec.description = "per-EtherType packet counters (paper Listing 1)";
    spec.seedMaps = [](ebpf::MapSet &) {};
    spec.expectedAction = XdpAction::Tx;
    return spec;
}

// ---------------------------------------------------------------------
// Simple firewall
// ---------------------------------------------------------------------

AppSpec
makeSimpleFirewall()
{
    ProgramBuilder b("simple_firewall");
    const uint32_t sessions =
        b.addMap({"sessions", MapKind::Hash, 16, 8, 8192});

    prologue(b, R1, R2, 42, "pass");
    loadEthType(b, R4, R1);
    b.jcond(JmpOp::Jne, R4, net::kEthPIp, "pass");
    b.ldx(MemSize::B, R4, R1, kOffIpProto);
    b.jcond(JmpOp::Jne, R4, net::kIpProtoUdp, "pass");

    // 5-tuple fields (raw wire-byte identity; see file comment).
    b.ldx(MemSize::W, R6, R1, kOffIpSrc);
    b.ldx(MemSize::W, R7, R1, kOffIpDst);
    b.ldx(MemSize::H, R8, R1, kOffSport);
    b.ldx(MemSize::H, R9, R1, kOffDport);

    // Reverse key first: an established outbound session admits replies.
    b.stx(MemSize::W, FP, -16, R7);
    b.stx(MemSize::W, FP, -12, R6);
    b.stx(MemSize::H, FP, -8, R9);
    b.stx(MemSize::H, FP, -6, R8);
    b.st(MemSize::W, FP, -4, 0);
    b.ldMap(R1, sessions);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -16);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jne, R0, 0, "allow");

    // Forward key.
    b.stx(MemSize::W, FP, -16, R6);
    b.stx(MemSize::W, FP, -12, R7);
    b.stx(MemSize::H, FP, -8, R8);
    b.stx(MemSize::H, FP, -6, R9);
    b.ldMap(R1, sessions);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -16);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jne, R0, 0, "allow");

    // New flow: only the trusted 10.0.0.0/8 side may open sessions.
    b.movReg(R3, R6);
    b.alu(AluOp::And, R3, 0xff);  // first wire byte of the source IP
    b.jcond(JmpOp::Jne, R3, 10, "drop");
    b.mov(R3, 1);
    b.stx(MemSize::DW, FP, -24, R3);
    b.ldMap(R1, sessions);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -16);
    b.movReg(R3, FP);
    b.alu(AluOp::Add, R3, -24);
    b.mov(R4, 0);
    b.call(ebpf::kHelperMapUpdate);

    b.label("allow");
    b.mov(R0, 3);  // XDP_TX
    b.exit();
    b.label("pass");
    b.mov(R0, 2);
    b.exit();
    b.label("drop");
    b.mov(R0, 1);
    b.exit();

    AppSpec spec;
    spec.prog = b.build();
    spec.description =
        "bidirectional UDP connection tracking (paper table 1)";
    spec.seedMaps = [](ebpf::MapSet &) {};
    spec.reverseFraction = 0.3;
    spec.expectedAction = XdpAction::Tx;
    return spec;
}

// ---------------------------------------------------------------------
// router_ipv4
// ---------------------------------------------------------------------

AppSpec
makeRouterIpv4()
{
    ProgramBuilder b("router_ipv4");
    const uint32_t routes =
        b.addMap({"routes", MapKind::LpmTrie, 8, 16, 256});
    const uint32_t rtstats =
        b.addMap({"rtstats", MapKind::Array, 4, 8, 4});

    prologue(b, R1, R2, 34, "pass");
    loadEthType(b, R4, R1);
    b.jcond(JmpOp::Jne, R4, net::kEthPIp, "pass");
    b.ldx(MemSize::B, R4, R1, kOffIpTtl);
    b.jcond(JmpOp::Jlt, R4, 2, "drop");  // TTL expired

    // LPM key: {prefixlen=32, destination wire bytes}.
    b.mov(R3, 32);
    b.stx(MemSize::W, FP, -8, R3);
    b.ldx(MemSize::W, R5, R1, kOffIpDst);
    b.stx(MemSize::W, FP, -4, R5);
    b.movReg(R6, R1);  // keep the data pointer across calls
    b.ldMap(R1, routes);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -8);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "pass");
    b.movReg(R7, R0);  // route entry

    // Aggregated traffic statistics (global state, paper section 5).
    b.mov(R3, 0);
    b.stx(MemSize::W, FP, -12, R3);
    b.ldMap(R1, rtstats);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -12);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "fwd");
    b.mov(R2, 1);
    b.atomicAdd(MemSize::DW, R0, 0, R2);

    b.label("fwd");
    // Rewrite MACs from the route entry {ifindex u32, dmac 6B, smac 6B}.
    b.ldx(MemSize::W, R3, R7, 4);
    b.stx(MemSize::W, R6, 0, R3);
    b.ldx(MemSize::H, R4, R7, 8);
    b.stx(MemSize::H, R6, 4, R4);
    b.ldx(MemSize::W, R3, R7, 10);
    b.stx(MemSize::W, R6, 6, R3);
    b.ldx(MemSize::H, R4, R7, 14);
    b.stx(MemSize::H, R6, 10, R4);
    // TTL decrement.
    b.ldx(MemSize::B, R4, R6, kOffIpTtl);
    b.alu(AluOp::Add, R4, -1);
    b.stx(MemSize::B, R6, kOffIpTtl, R4);
    // Incremental header checksum: the BE [ttl|proto] word lost 0x0100.
    b.ldx(MemSize::H, R5, R6, kOffIpCheck);
    b.endian(true, R5, 16);
    b.alu(AluOp::Add, R5, 0x0100);
    csumFold(b, R5, R3);
    b.endian(true, R5, 16);
    b.stx(MemSize::H, R6, kOffIpCheck, R5);
    // Redirect out of the route's interface.
    b.ldx(MemSize::W, R1, R7, 0);
    b.mov(R2, 0);
    b.call(ebpf::kHelperRedirect);
    b.exit();

    b.label("pass");
    b.mov(R0, 2);
    b.exit();
    b.label("drop");
    b.mov(R0, 1);
    b.exit();

    AppSpec spec;
    spec.prog = b.build();
    spec.description =
        "LPM route lookup, MAC rewrite, TTL/checksum update, redirect";
    spec.seedMaps = [](ebpf::MapSet &maps) {
        ebpf::Map *routes_map = maps.byName("routes");
        auto add_route = [&](uint32_t prefix, uint32_t plen,
                             uint32_t ifindex, uint8_t mac_seed) {
            std::vector<uint8_t> key(8, 0);
            storeLe<uint32_t>(key.data(), plen);
            storeBe<uint32_t>(key.data() + 4, prefix);
            std::vector<uint8_t> value(16, 0);
            storeLe<uint32_t>(value.data(), ifindex);
            for (int i = 0; i < 6; ++i) {
                value[4 + i] = static_cast<uint8_t>(mac_seed + i);
                value[10 + i] = static_cast<uint8_t>(0x20 + i);
            }
            routes_map->hostUpdate(key, value);
        };
        add_route(0x00000000u, 0, 2, 0x40);           // default route
        add_route(0xc0a80000u, 16, 3, 0x50);          // 192.168/16
        add_route(0xc0a85a00u, 24, 4, 0x60);          // 192.168.90/24
    };
    spec.expectedAction = XdpAction::Redirect;
    return spec;
}

// ---------------------------------------------------------------------
// tx_iptunnel
// ---------------------------------------------------------------------

AppSpec
makeTxIpTunnel()
{
    ProgramBuilder b("tx_iptunnel");
    const uint32_t vips = b.addMap({"vips", MapKind::Hash, 4, 16, 256});
    const uint32_t tnstats =
        b.addMap({"tnstats", MapKind::Array, 4, 8, 4});

    b.movReg(R9, R1);  // keep ctx for bpf_xdp_adjust_head
    prologue(b, R1, R2, 42, "pass");
    loadEthType(b, R4, R1);
    b.jcond(JmpOp::Jne, R4, net::kEthPIp, "pass");
    b.ldx(MemSize::B, R4, R1, kOffIpProto);
    b.jcond(JmpOp::Jeq, R4, net::kIpProtoUdp, "l4ok");
    b.jcond(JmpOp::Jeq, R4, net::kIpProtoTcp, "l4ok");
    b.jmp("pass");
    b.label("l4ok");

    // VIP key: {dport (host order) u16, proto u8, 0 u8}.
    b.ldx(MemSize::H, R5, R1, kOffDport);
    b.endian(true, R5, 16);
    b.stx(MemSize::H, FP, -4, R5);
    b.stx(MemSize::B, FP, -2, R4);
    b.st(MemSize::B, FP, -1, 0);
    // Remember the inner total length (host order) for the outer header.
    b.ldx(MemSize::H, R6, R1, 16);
    b.endian(true, R6, 16);

    b.ldMap(R1, vips);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -4);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "pass");
    b.movReg(R7, R0);  // tunnel endpoint entry

    // Aggregated stats (global state).
    b.mov(R3, 0);
    b.stx(MemSize::W, FP, -12, R3);
    b.ldMap(R1, tnstats);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -12);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "grow");
    b.mov(R2, 1);
    b.atomicAdd(MemSize::DW, R0, 0, R2);

    b.label("grow");
    // Make room for the outer IPv4 header.
    b.movReg(R1, R9);
    b.mov(R2, -20);
    b.call(ebpf::kHelperXdpAdjustHead);
    b.jcond(JmpOp::Jne, R0, 0, "drop");
    b.ldx(MemSize::W, R1, R9, 0);  // data (fresh generation)
    b.ldx(MemSize::W, R2, R9, 4);  // data_end
    b.movReg(R3, R1);
    b.alu(AluOp::Add, R3, 54);
    b.jcondReg(JmpOp::Jgt, R3, R2, "drop");

    // Move the Ethernet header to the new front.
    b.ldx(MemSize::W, R3, R1, 20);
    b.stx(MemSize::W, R1, 0, R3);
    b.ldx(MemSize::W, R3, R1, 24);
    b.stx(MemSize::W, R1, 4, R3);
    b.ldx(MemSize::W, R3, R1, 28);
    b.stx(MemSize::W, R1, 8, R3);
    b.ldx(MemSize::H, R3, R1, 32);
    b.stx(MemSize::H, R1, 12, R3);
    // Outer destination MAC from the tunnel entry (bytes 8..13).
    b.ldx(MemSize::W, R3, R7, 8);
    b.stx(MemSize::W, R1, 0, R3);
    b.ldx(MemSize::H, R4, R7, 12);
    b.stx(MemSize::H, R1, 4, R4);

    // Outer IPv4 header at offset 14.
    b.st(MemSize::B, R1, 14, 0x45);
    b.st(MemSize::B, R1, 15, 0);
    b.movReg(R4, R6);
    b.alu(AluOp::Add, R4, 20);  // outer total length (host order)
    b.movReg(R5, R4);           // keep for the checksum
    b.endian(true, R4, 16);
    b.stx(MemSize::H, R1, 16, R4);
    b.st(MemSize::H, R1, 18, 0);      // identification
    b.st(MemSize::B, R1, 20, 0x40);   // flags: DF
    b.st(MemSize::B, R1, 21, 0);
    b.st(MemSize::B, R1, 22, 64);     // TTL
    b.st(MemSize::B, R1, 23, net::kIpProtoIpIp);
    // Tunnel addresses (wire bytes straight from the map entry).
    b.ldx(MemSize::W, R3, R7, 0);
    b.stx(MemSize::W, R1, 26, R3);
    b.ldx(MemSize::W, R4, R7, 4);
    b.stx(MemSize::W, R1, 30, R4);
    // Header checksum over the constant fields + length + addresses.
    b.endian(true, R3, 32);
    b.endian(true, R4, 32);
    b.mov(R8, 0x4500 + 0x4000 + 0x4004);  // ver/ihl + flags + ttl/proto
    b.aluReg(AluOp::Add, R8, R5);
    b.movReg(R2, R3);
    b.alu(AluOp::Rsh, R2, 16);
    b.aluReg(AluOp::Add, R8, R2);
    b.alu(AluOp::And, R3, 0xffff);
    b.aluReg(AluOp::Add, R8, R3);
    b.movReg(R2, R4);
    b.alu(AluOp::Rsh, R2, 16);
    b.aluReg(AluOp::Add, R8, R2);
    b.alu(AluOp::And, R4, 0xffff);
    b.aluReg(AluOp::Add, R8, R4);
    csumFold(b, R8, R2);
    b.alu(AluOp::Xor, R8, 0xffff);
    b.endian(true, R8, 16);
    b.stx(MemSize::H, R1, 24, R8);

    b.mov(R0, 3);  // XDP_TX
    b.exit();
    b.label("pass");
    b.mov(R0, 2);
    b.exit();
    b.label("drop");
    b.mov(R0, 1);
    b.exit();

    AppSpec spec;
    spec.prog = b.build();
    spec.description = "IP-in-IP encapsulation of matched services";
    spec.seedMaps = [](ebpf::MapSet &maps) {
        ebpf::Map *vips_map = maps.byName("vips");
        // Cover the destination ports the traffic generator emits.
        for (unsigned k = 0; k < 7; ++k) {
            std::vector<uint8_t> key(4, 0);
            storeLe<uint16_t>(key.data(),
                              static_cast<uint16_t>(53 + k * 1000));
            key[2] = net::kIpProtoUdp;
            std::vector<uint8_t> value(16, 0);
            storeBe<uint32_t>(value.data(), 0x0a636363u);      // 10.99.99.99
            storeBe<uint32_t>(value.data() + 4, 0xac100000u + k);
            for (int i = 0; i < 6; ++i)
                value[8 + i] = static_cast<uint8_t>(0x70 + i);
            vips_map->hostUpdate(key, value);
        }
    };
    spec.expectedAction = XdpAction::Tx;
    return spec;
}

// ---------------------------------------------------------------------
// DNAT
// ---------------------------------------------------------------------

AppSpec
makeDnat()
{
    constexpr uint32_t kNatIpWireLe = 0x010200C0;  // 192.0.2.1 wire bytes
    constexpr int64_t kNatIpBeHi = 0xC000;
    constexpr int64_t kNatIpBeLo = 0x0201;

    ProgramBuilder b("dnat");
    const uint32_t nat = b.addMap({"nat", MapKind::Hash, 8, 8, 8192});
    const uint32_t rnat = b.addMap({"rnat", MapKind::Hash, 8, 8, 8192});

    prologue(b, R6, R2, 42, "pass");
    loadEthType(b, R4, R6);
    b.jcond(JmpOp::Jne, R4, net::kEthPIp, "pass");
    b.ldx(MemSize::B, R4, R6, kOffIpProto);
    b.jcond(JmpOp::Jne, R4, net::kIpProtoUdp, "pass");

    b.ldx(MemSize::W, R7, R6, kOffIpSrc);
    b.ldx(MemSize::W, R3, R6, kOffIpDst);
    b.ldx(MemSize::H, R8, R6, kOffSport);
    b.endian(true, R8, 16);
    b.ldx(MemSize::H, R9, R6, kOffDport);
    b.endian(true, R9, 16);
    // Inbound falls through so its rnat lookup sits at an earlier pipeline
    // stage than outbound's rnat update (RAW flush window, not WAR).
    b.jcond(JmpOp::Jne, R3, kNatIpWireLe, "outbound");
    b.jmp("inbound");

    b.label("outbound");
    // ---- Outbound: translate the trusted 10.0.0.0/8 side. ----
    b.movReg(R3, R7);
    b.alu(AluOp::And, R3, 0xff);
    b.jcond(JmpOp::Jne, R3, 10, "pass");
    // nat key {sip wire bytes, sport host, pad}.
    b.stx(MemSize::W, FP, -8, R7);
    b.stx(MemSize::H, FP, -4, R8);
    b.st(MemSize::H, FP, -2, 0);
    b.ldMap(R1, nat);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -8);
    b.call(ebpf::kHelperMapLookup);
    // Hit path first (both in program order and in pipeline layout, so
    // the binding read precedes the miss path's update stage: the flush
    // evaluation block then covers it as a plain RAW window).
    b.jcond(JmpOp::Jeq, R0, 0, "alloc");
    b.ldx(MemSize::H, R3, R0, 0);
    b.jmp("rewrite_out");

    b.label("alloc");
    // Deterministic data-plane port allocation (20000 + hash & 0x3fff):
    // a flush replay recomputes the identical binding, so concurrent
    // first-packets of one flow converge on the same translation.
    b.movReg(R3, R7);
    b.lddw(R5, 2654435761LL);  // golden-ratio hash; exceeds a s32 imm
    b.aluReg(AluOp::Mul, R3, R5);
    b.movReg(R4, R8);
    b.alu(AluOp::Mul, R4, 40503);
    b.aluReg(AluOp::Xor, R3, R4);
    b.alu(AluOp::Rsh, R3, 7);
    b.alu(AluOp::And, R3, 0x3fff);
    b.alu(AluOp::Add, R3, 20000);
    // nat value {port} / rnat key {port} / rnat value {sip, sport}.
    b.st(MemSize::DW, FP, -16, 0);
    b.stx(MemSize::H, FP, -16, R3);
    b.st(MemSize::DW, FP, -32, 0);
    b.stx(MemSize::H, FP, -32, R3);
    b.stx(MemSize::W, FP, -24, R7);
    b.stx(MemSize::H, FP, -20, R8);
    b.st(MemSize::H, FP, -18, 0);
    b.ldMap(R1, nat);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -8);
    b.movReg(R3, FP);
    b.alu(AluOp::Add, R3, -16);
    b.mov(R4, 0);
    b.call(ebpf::kHelperMapUpdate);
    b.ldMap(R1, rnat);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -32);
    b.movReg(R3, FP);
    b.alu(AluOp::Add, R3, -24);
    b.mov(R4, 0);
    b.call(ebpf::kHelperMapUpdate);
    b.ldx(MemSize::H, R3, FP, -16);

    b.label("rewrite_out");
    // sport <- NAT port; saddr <- 192.0.2.1; fix the IP checksum.
    b.movReg(R4, R3);
    b.endian(true, R4, 16);
    b.stx(MemSize::H, R6, kOffSport, R4);
    b.st(MemSize::W, R6, kOffIpSrc,
         static_cast<int32_t>(kNatIpWireLe));
    // HC' = ~(~HC + ~old_hi + ~old_lo + new_hi + new_lo).
    b.ldx(MemSize::H, R5, R6, kOffIpCheck);
    b.endian(true, R5, 16);
    b.alu(AluOp::Xor, R5, 0xffff);
    b.movReg(R4, R7);
    b.endian(true, R4, 32);
    b.movReg(R2, R4);
    b.alu(AluOp::Rsh, R2, 16);
    b.alu(AluOp::Xor, R2, 0xffff);
    b.aluReg(AluOp::Add, R5, R2);
    b.alu(AluOp::And, R4, 0xffff);
    b.alu(AluOp::Xor, R4, 0xffff);
    b.aluReg(AluOp::Add, R5, R4);
    b.alu(AluOp::Add, R5, kNatIpBeHi);
    b.alu(AluOp::Add, R5, kNatIpBeLo);
    csumFold(b, R5, R2);
    b.alu(AluOp::Xor, R5, 0xffff);
    b.endian(true, R5, 16);
    b.stx(MemSize::H, R6, kOffIpCheck, R5);
    b.st(MemSize::H, R6, kOffUdpCsum, 0);  // UDP checksum optional (IPv4)
    b.mov(R0, 3);
    b.exit();

    // ---- Inbound: reverse translation keyed by the NAT port. ----
    b.label("inbound");
    b.st(MemSize::DW, FP, -8, 0);
    b.stx(MemSize::H, FP, -8, R9);
    b.ldMap(R1, rnat);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -8);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "drop");
    b.ldx(MemSize::W, R7, R0, 0);  // original address (wire bytes)
    b.ldx(MemSize::H, R8, R0, 4);  // original port (host order)
    b.stx(MemSize::W, R6, kOffIpDst, R7);
    b.movReg(R4, R8);
    b.endian(true, R4, 16);
    b.stx(MemSize::H, R6, kOffDport, R4);
    // Checksum: NAT address out, original address in.
    b.ldx(MemSize::H, R5, R6, kOffIpCheck);
    b.endian(true, R5, 16);
    b.alu(AluOp::Xor, R5, 0xffff);
    b.alu(AluOp::Add, R5, kNatIpBeHi ^ 0xffff);
    b.alu(AluOp::Add, R5, kNatIpBeLo ^ 0xffff);
    b.movReg(R4, R7);
    b.endian(true, R4, 32);
    b.movReg(R2, R4);
    b.alu(AluOp::Rsh, R2, 16);
    b.aluReg(AluOp::Add, R5, R2);
    b.alu(AluOp::And, R4, 0xffff);
    b.aluReg(AluOp::Add, R5, R4);
    csumFold(b, R5, R2);
    b.alu(AluOp::Xor, R5, 0xffff);
    b.endian(true, R5, 16);
    b.stx(MemSize::H, R6, kOffIpCheck, R5);
    b.st(MemSize::H, R6, kOffUdpCsum, 0);
    b.mov(R0, 3);
    b.exit();

    b.label("pass");
    b.mov(R0, 2);
    b.exit();
    b.label("drop");
    b.mov(R0, 1);
    b.exit();

    AppSpec spec;
    spec.prog = b.build();
    spec.description =
        "dynamic source NAT with data-plane port allocation (table 1)";
    spec.seedMaps = [](ebpf::MapSet &) {};
    spec.expectedAction = XdpAction::Tx;
    return spec;
}

// ---------------------------------------------------------------------
// Suricata bypass filter
// ---------------------------------------------------------------------

AppSpec
makeSuricataFilter()
{
    ProgramBuilder b("suricata_filter");
    const uint32_t bypass =
        b.addMap({"bypass", MapKind::Hash, 16, 8, 8192});
    const uint32_t sstats =
        b.addMap({"sstats", MapKind::Array, 4, 8, 4});

    prologue(b, R6, R2, 46, "pass");
    loadEthType(b, R4, R6);
    // Step over one 802.1Q tag if present (dynamic offsets downstream).
    b.jcond(JmpOp::Jne, R4, 0x8100, "parse");
    b.alu(AluOp::Add, R6, 4);
    b.label("parse");
    // Recheck the (possibly shifted) EtherType.
    loadEthType(b, R4, R6);
    b.jcond(JmpOp::Jne, R4, net::kEthPIp, "pass");
    b.ldx(MemSize::B, R4, R6, kOffIpProto);
    b.jcond(JmpOp::Jeq, R4, net::kIpProtoUdp, "l4");
    b.jcond(JmpOp::Jne, R4, net::kIpProtoTcp, "pass");
    b.label("l4");

    // 5-tuple key (same layout as the firewall).
    b.ldx(MemSize::W, R7, R6, kOffIpSrc);
    b.stx(MemSize::W, FP, -16, R7);
    b.ldx(MemSize::W, R7, R6, kOffIpDst);
    b.stx(MemSize::W, FP, -12, R7);
    b.ldx(MemSize::H, R8, R6, kOffSport);
    b.stx(MemSize::H, FP, -8, R8);
    b.ldx(MemSize::H, R8, R6, kOffDport);
    b.stx(MemSize::H, FP, -6, R8);
    b.st(MemSize::W, FP, -4, 0);
    // Remember the IP total length for per-flow byte accounting.
    b.ldx(MemSize::H, R9, R6, 16);
    b.endian(true, R9, 16);

    // Global packet counter (global state, paper table 1 note).
    b.mov(R3, 0);
    b.stx(MemSize::W, FP, -20, R3);
    b.ldMap(R1, sstats);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -20);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "acl");
    b.mov(R2, 1);
    b.atomicAdd(MemSize::DW, R0, 0, R2);

    b.label("acl");
    b.ldMap(R1, bypass);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -16);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "pass");
    // Bypassed flow: account bytes and drop before the IDS sees it.
    b.atomicAdd(MemSize::DW, R0, 0, R9);
    b.mov(R0, 1);
    b.exit();

    b.label("pass");
    b.mov(R0, 2);
    b.exit();

    AppSpec spec;
    spec.prog = b.build();
    spec.description =
        "Suricata-style flow bypass: ACL + per-flow/global statistics";
    spec.seedMaps = [](ebpf::MapSet &) {};
    spec.expectedAction = XdpAction::Pass;
    return spec;
}

void
seedSuricataBypass(ebpf::MapSet &maps,
                   const std::vector<net::FlowKey> &flows)
{
    ebpf::Map *bypass = maps.byName("bypass");
    std::vector<uint8_t> value(8, 0);
    for (const net::FlowKey &flow : flows)
        bypass->hostUpdate(tupleKeyBytes(flow), value);
}

// ---------------------------------------------------------------------
// Leaky bucket (section 5.3)
// ---------------------------------------------------------------------

AppSpec
makeLeakyBucket()
{
    constexpr int64_t kCostPerPacket = 1000;
    constexpr int64_t kBurst = 100000;

    ProgramBuilder b("leaky_bucket");
    const uint32_t buckets =
        b.addMap({"buckets", MapKind::Hash, 8, 16, 8192});

    prologue(b, R6, R2, 34, "pass");
    loadEthType(b, R4, R6);
    b.jcond(JmpOp::Jne, R4, net::kEthPIp, "pass");
    b.ldx(MemSize::W, R7, R6, kOffIpSrc);
    b.stx(MemSize::W, FP, -8, R7);
    b.ldx(MemSize::W, R7, R6, kOffIpDst);
    b.stx(MemSize::W, FP, -4, R7);
    b.call(ebpf::kHelperKtimeGetNs);
    b.movReg(R9, R0);  // packet arrival time

    b.ldMap(R1, buckets);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -8);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "newflow");

    // Read-modify-write of flow state through the value pointer: this is
    // the RAW-hazard generator the paper instruments in section 5.3.
    b.ldx(MemSize::DW, R3, R0, 0);  // last update time
    b.ldx(MemSize::DW, R4, R0, 8);  // bucket level
    b.movReg(R5, R9);
    b.aluReg(AluOp::Sub, R5, R3);
    b.alu(AluOp::Rsh, R5, 10);      // leaked = elapsed_ns / 1024
    b.jcondReg(JmpOp::Jgt, R4, R5, "sub");
    b.mov(R4, 0);
    b.jmp("add");
    b.label("sub");
    b.aluReg(AluOp::Sub, R4, R5);
    b.label("add");
    b.alu(AluOp::Add, R4, kCostPerPacket);
    b.mov(R6, 2);  // XDP_PASS under the rate...
    b.jcond(JmpOp::Jle, R4, kBurst, "store");
    b.mov(R6, 1);  // ...XDP_DROP above it
    b.label("store");
    b.stx(MemSize::DW, R0, 0, R9);
    b.stx(MemSize::DW, R0, 8, R4);
    b.movReg(R0, R6);
    b.exit();

    b.label("newflow");
    b.stx(MemSize::DW, FP, -24, R9);
    b.mov(R3, kCostPerPacket);
    b.stx(MemSize::DW, FP, -16, R3);
    b.ldMap(R1, buckets);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -8);
    b.movReg(R3, FP);
    b.alu(AluOp::Add, R3, -24);
    b.mov(R4, 0);
    b.call(ebpf::kHelperMapUpdate);
    b.mov(R0, 2);
    b.exit();

    b.label("pass");
    b.mov(R0, 2);
    b.exit();

    AppSpec spec;
    spec.prog = b.build();
    spec.description =
        "per-flow leaky-bucket policer (flush-heavy, section 5.3)";
    spec.seedMaps = [](ebpf::MapSet &) {};
    spec.expectedAction = XdpAction::Pass;
    return spec;
}

// ---------------------------------------------------------------------
// Elastic-buffer demonstrator (appendix A.2)
// ---------------------------------------------------------------------

AppSpec
makeElasticDemo()
{
    ProgramBuilder b("elastic_demo");
    const uint32_t gstats = b.addMap({"gstats", MapKind::Array, 4, 8, 1});
    const uint32_t flows = b.addMap({"flows", MapKind::Hash, 8, 8, 8192});

    prologue(b, R6, R2, 34, "pass");
    // Atomic global counter FIRST: the later flush must not replay it,
    // which forces an elastic buffer after this stage (appendix A.2).
    b.mov(R3, 0);
    b.stx(MemSize::W, FP, -4, R3);
    b.ldMap(R1, gstats);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -4);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "flowstate");
    b.mov(R2, 1);
    b.atomicAdd(MemSize::DW, R0, 0, R2);

    b.label("flowstate");
    b.ldx(MemSize::W, R7, R6, kOffIpSrc);
    b.stx(MemSize::W, FP, -12, R7);
    b.ldx(MemSize::W, R7, R6, kOffIpDst);
    b.stx(MemSize::W, FP, -8, R7);
    b.ldMap(R1, flows);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -12);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "create");
    // Per-flow packet count via read-modify-write (RAW flush pair).
    b.ldx(MemSize::DW, R3, R0, 0);
    b.alu(AluOp::Add, R3, 1);
    b.stx(MemSize::DW, R0, 0, R3);
    b.mov(R0, 2);
    b.exit();

    b.label("create");
    b.mov(R3, 1);
    b.stx(MemSize::DW, FP, -24, R3);
    b.ldMap(R1, flows);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -12);
    b.movReg(R3, FP);
    b.alu(AluOp::Add, R3, -24);
    b.mov(R4, 0);
    b.call(ebpf::kHelperMapUpdate);
    b.mov(R0, 2);
    b.exit();

    b.label("pass");
    b.mov(R0, 2);
    b.exit();

    AppSpec spec;
    spec.prog = b.build();
    spec.description =
        "atomic counter before a flow-state RMW: exercises elastic-buffer "
        "flush segmentation (appendix A.2)";
    spec.seedMaps = [](ebpf::MapSet &) {};
    spec.expectedAction = XdpAction::Pass;
    return spec;
}

// ---------------------------------------------------------------------
// Monitoring sampler
// ---------------------------------------------------------------------

AppSpec
makeMonitorSampler()
{
    ProgramBuilder b("monitor_sampler");
    const uint32_t mstats =
        b.addMap({"mstats", MapKind::Array, 4, 8, 2});

    b.movReg(R9, R1);  // keep ctx for bpf_xdp_adjust_tail
    prologue(b, R6, R2, 34, "pass");
    loadEthType(b, R4, R6);
    b.jcond(JmpOp::Jne, R4, net::kEthPIp, "pass");

    // Count every seen IPv4 packet (global state, atomic).
    b.mov(R3, 0);
    b.stx(MemSize::W, FP, -4, R3);
    b.ldMap(R1, mstats);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -4);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "sample");
    b.mov(R2, 1);
    b.atomicAdd(MemSize::DW, R0, 0, R2);

    b.label("sample");
    // Keep a pseudo-random 25%.
    b.call(ebpf::kHelperGetPrandomU32);
    b.alu(AluOp::And, R0, 0xff);
    b.jcond(JmpOp::Jgt, R0, 63, "drop");

    // Count the sampled packet.
    b.mov(R3, 1);
    b.stx(MemSize::W, FP, -4, R3);
    b.ldMap(R1, mstats);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -4);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "trunc");
    b.mov(R2, 1);
    b.atomicAdd(MemSize::DW, R0, 0, R2);

    b.label("trunc");
    // Truncate to the first 64 bytes before passing to the collector.
    b.ldx(MemSize::W, R1, R9, 0);  // data (fresh)
    b.ldx(MemSize::W, R2, R9, 4);  // data_end
    b.movReg(R3, R2);
    b.aluReg(AluOp::Sub, R3, R1);  // packet length
    b.jcond(JmpOp::Jle, R3, 64, "deliver");
    b.mov(R4, 64);
    b.aluReg(AluOp::Sub, R4, R3);  // negative delta
    b.movReg(R1, R9);
    b.movReg(R2, R4);
    b.call(ebpf::kHelperXdpAdjustTail);

    b.label("deliver");
    b.mov(R0, 2);  // XDP_PASS to the collector
    b.exit();
    b.label("drop");
    b.mov(R0, 1);
    b.exit();
    b.label("pass");
    b.mov(R0, 2);
    b.exit();

    AppSpec spec;
    spec.prog = b.build();
    spec.description =
        "random 25% sampling with 64B truncation (monitoring use case)";
    spec.seedMaps = [](ebpf::MapSet &) {};
    spec.expectedAction = XdpAction::Drop;
    return spec;
}

// ---------------------------------------------------------------------
// L4 load balancer (Katran-style)
// ---------------------------------------------------------------------

AppSpec
makeL4LoadBalancer()
{
    constexpr unsigned kSlotsPerVip = 64;

    ProgramBuilder b("l4_lb");
    // VIP table: {dst ip wire bytes, dst port (host), proto, pad} ->
    // {vip index, backend count}.
    const uint32_t vips = b.addMap({"lbvips", MapKind::Hash, 8, 8, 64});
    // Backend ring: vip_index * kSlotsPerVip + slot -> {ip, mac}.
    const uint32_t backends =
        b.addMap({"lbbackends", MapKind::Array, 4, 16, 64 * kSlotsPerVip});
    const uint32_t lbstats =
        b.addMap({"lbstats", MapKind::Array, 4, 8, 64});

    b.movReg(R9, R1);  // ctx for the encapsulation
    prologue(b, R6, R2, 42, "pass");
    loadEthType(b, R4, R6);
    b.jcond(JmpOp::Jne, R4, net::kEthPIp, "pass");
    b.ldx(MemSize::B, R4, R6, kOffIpProto);
    b.jcond(JmpOp::Jeq, R4, net::kIpProtoUdp, "l4ok");
    b.jcond(JmpOp::Jne, R4, net::kIpProtoTcp, "pass");
    b.label("l4ok");

    // VIP key {dip wire, dport host, proto, pad}.
    b.ldx(MemSize::W, R7, R6, kOffIpDst);
    b.stx(MemSize::W, FP, -8, R7);
    b.ldx(MemSize::H, R5, R6, kOffDport);
    b.endian(true, R5, 16);
    b.stx(MemSize::H, FP, -4, R5);
    b.stx(MemSize::B, FP, -2, R4);
    b.st(MemSize::B, FP, -1, 0);
    // Flow hash inputs survive the calls in callee-saved registers.
    b.ldx(MemSize::W, R7, R6, kOffIpSrc);
    b.ldx(MemSize::H, R8, R6, kOffSport);

    b.ldMap(R1, vips);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -8);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "pass");
    b.ldx(MemSize::W, R6, R0, 0);  // vip index (data ptr no longer needed)
    b.ldx(MemSize::W, R5, R0, 4);  // backend count
    b.jcond(JmpOp::Jeq, R5, 0, "pass");

    // slot = mix64(sip * phi64 ^ sport * 40503) mod count; the high
    // product bits carry the mixing (the inputs are byte-swapped loads
    // whose entropy sits in their top bytes).
    b.movReg(R3, R7);
    b.lddw(R4, static_cast<int64_t>(0x9e3779b97f4a7c15ULL));
    b.aluReg(AluOp::Mul, R3, R4);
    b.movReg(R4, R8);
    b.alu(AluOp::Mul, R4, 40503);
    b.aluReg(AluOp::Xor, R3, R4);
    b.movReg(R4, R3);
    b.alu(AluOp::Rsh, R4, 33);
    b.aluReg(AluOp::Xor, R3, R4);
    b.aluReg(AluOp::Mod, R3, R5);
    // backend key = vip_index * kSlotsPerVip + slot.
    b.movReg(R4, R6);
    b.alu(AluOp::Mul, R4, kSlotsPerVip);
    b.aluReg(AluOp::Add, R4, R3);
    b.stx(MemSize::W, FP, -12, R4);
    b.ldMap(R1, backends);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -12);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "drop");
    b.movReg(R7, R0);  // backend entry {ip 4B, mac 6B}

    // Per-VIP packet counter (atomic, computed index).
    b.stx(MemSize::W, FP, -16, R6);
    b.ldMap(R1, lbstats);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -16);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "encap");
    b.mov(R2, 1);
    b.atomicAdd(MemSize::DW, R0, 0, R2);

    b.label("encap");
    // Inner total length (for the outer header), then grow the packet.
    b.ldx(MemSize::W, R1, R9, 0);
    b.ldx(MemSize::H, R6, R1, 16);
    b.endian(true, R6, 16);
    b.movReg(R1, R9);
    b.mov(R2, -20);
    b.call(ebpf::kHelperXdpAdjustHead);
    b.jcond(JmpOp::Jne, R0, 0, "drop");
    b.ldx(MemSize::W, R1, R9, 0);
    b.ldx(MemSize::W, R2, R9, 4);
    b.movReg(R3, R1);
    b.alu(AluOp::Add, R3, 54);
    b.jcondReg(JmpOp::Jgt, R3, R2, "drop");

    // Ethernet to the front; destination MAC = backend MAC.
    b.ldx(MemSize::W, R3, R1, 20);
    b.stx(MemSize::W, R1, 0, R3);
    b.ldx(MemSize::W, R3, R1, 24);
    b.stx(MemSize::W, R1, 4, R3);
    b.ldx(MemSize::W, R3, R1, 28);
    b.stx(MemSize::W, R1, 8, R3);
    b.ldx(MemSize::H, R3, R1, 32);
    b.stx(MemSize::H, R1, 12, R3);
    b.ldx(MemSize::W, R3, R7, 4);
    b.stx(MemSize::W, R1, 0, R3);
    b.ldx(MemSize::H, R4, R7, 8);
    b.stx(MemSize::H, R1, 4, R4);

    // Outer IPv4 header: LB source 10.200.0.1, backend destination.
    b.st(MemSize::B, R1, 14, 0x45);
    b.st(MemSize::B, R1, 15, 0);
    b.movReg(R4, R6);
    b.alu(AluOp::Add, R4, 20);
    b.movReg(R5, R4);
    b.endian(true, R4, 16);
    b.stx(MemSize::H, R1, 16, R4);
    b.st(MemSize::H, R1, 18, 0);
    b.st(MemSize::B, R1, 20, 0x40);
    b.st(MemSize::B, R1, 21, 0);
    b.st(MemSize::B, R1, 22, 64);
    b.st(MemSize::B, R1, 23, net::kIpProtoIpIp);
    b.st(MemSize::W, R1, 26, 0x0100c80a);  // 10.200.0.1 wire bytes
    b.ldx(MemSize::W, R4, R7, 0);
    b.stx(MemSize::W, R1, 30, R4);
    // Checksum over constants + length + addresses.
    b.endian(true, R4, 32);
    b.mov(R8, 0x4500 + 0x4000 + 0x4004 + 0x0ac8 + 0x0001);
    b.aluReg(AluOp::Add, R8, R5);
    b.movReg(R2, R4);
    b.alu(AluOp::Rsh, R2, 16);
    b.aluReg(AluOp::Add, R8, R2);
    b.alu(AluOp::And, R4, 0xffff);
    b.aluReg(AluOp::Add, R8, R4);
    csumFold(b, R8, R2);
    b.alu(AluOp::Xor, R8, 0xffff);
    b.endian(true, R8, 16);
    b.stx(MemSize::H, R1, 24, R8);

    b.mov(R0, 3);
    b.exit();
    b.label("pass");
    b.mov(R0, 2);
    b.exit();
    b.label("drop");
    b.mov(R0, 1);
    b.exit();

    AppSpec spec;
    spec.prog = b.build();
    spec.description =
        "Katran-style L4 load balancer: VIP match, hashed backend "
        "choice, IPIP encapsulation";
    spec.seedMaps = [](ebpf::MapSet &maps) {
        ebpf::Map *vips_map = maps.byName("lbvips");
        ebpf::Map *backends_map = maps.byName("lbbackends");
        // Default test VIP: 192.168.0.10:53/UDP with 4 backends. Tests
        // and benches register further exact VIPs as needed.
        std::vector<uint8_t> key(8, 0);
        storeBe<uint32_t>(key.data(), 0xc0a8000a);
        storeLe<uint16_t>(key.data() + 4, 53);
        key[6] = net::kIpProtoUdp;
        std::vector<uint8_t> value(8, 0);
        storeLe<uint32_t>(value.data(), 0);   // vip index
        storeLe<uint32_t>(value.data() + 4, 4);  // backend count
        vips_map->hostUpdate(key, value);
        for (uint32_t slot = 0; slot < 4; ++slot) {
            std::vector<uint8_t> bkey(4);
            storeLe<uint32_t>(bkey.data(), slot);  // vip 0 ring
            std::vector<uint8_t> bvalue(16, 0);
            storeBe<uint32_t>(bvalue.data(), 0x0ac80100u + slot + 2);
            for (int i = 0; i < 6; ++i)
                bvalue[4 + i] = static_cast<uint8_t>(0xb0 + slot);
            backends_map->hostUpdate(bkey, bvalue);
        }
    };
    spec.expectedAction = XdpAction::Pass;  // most flows miss the VIP
    return spec;
}

// ---------------------------------------------------------------------
// IPIP decapsulation
// ---------------------------------------------------------------------

AppSpec
makeIpipDecap()
{
    ProgramBuilder b("ipip_decap");
    const uint32_t dstats = b.addMap({"dstats", MapKind::Array, 4, 8, 1});

    b.movReg(R9, R1);
    prologue(b, R6, R2, 54, "pass");  // outer eth+ip + inner ip
    loadEthType(b, R4, R6);
    b.jcond(JmpOp::Jne, R4, net::kEthPIp, "pass");
    b.ldx(MemSize::B, R4, R6, kOffIpProto);
    b.jcond(JmpOp::Jne, R4, net::kIpProtoIpIp, "pass");

    // Count decapsulations.
    b.mov(R3, 0);
    b.stx(MemSize::W, FP, -4, R3);
    b.ldMap(R1, dstats);
    b.movReg(R2, FP);
    b.alu(AluOp::Add, R2, -4);
    b.call(ebpf::kHelperMapLookup);
    b.jcond(JmpOp::Jeq, R0, 0, "strip");
    b.mov(R2, 1);
    b.atomicAdd(MemSize::DW, R0, 0, R2);

    b.label("strip");
    // Copy the Ethernet header 20 bytes forward, then drop the front.
    b.ldx(MemSize::W, R1, R9, 0);
    b.ldx(MemSize::W, R3, R1, 0);
    b.stx(MemSize::W, R1, 20, R3);
    b.ldx(MemSize::W, R3, R1, 4);
    b.stx(MemSize::W, R1, 24, R3);
    b.ldx(MemSize::W, R3, R1, 8);
    b.stx(MemSize::W, R1, 28, R3);
    b.ldx(MemSize::H, R3, R1, 12);
    b.stx(MemSize::H, R1, 32, R3);
    b.movReg(R1, R9);
    b.mov(R2, 20);
    b.call(ebpf::kHelperXdpAdjustHead);
    b.jcond(JmpOp::Jne, R0, 0, "drop");
    b.mov(R0, 3);
    b.exit();

    b.label("pass");
    b.mov(R0, 2);
    b.exit();
    b.label("drop");
    b.mov(R0, 1);
    b.exit();

    AppSpec spec;
    spec.prog = b.build();
    spec.description = "IP-in-IP decapsulation (reverse of tx_iptunnel)";
    spec.seedMaps = [](ebpf::MapSet &) {};
    spec.expectedAction = XdpAction::Pass;
    return spec;
}

std::vector<AppSpec>
paperApps()
{
    std::vector<AppSpec> apps;
    apps.push_back(makeSimpleFirewall());
    apps.push_back(makeRouterIpv4());
    apps.push_back(makeTxIpTunnel());
    apps.push_back(makeDnat());
    apps.push_back(makeSuricataFilter());
    return apps;
}

AppSpec
appByName(const std::string &ref)
{
    const std::string name = ref.rfind("app:", 0) == 0 ? ref.substr(4) : ref;
    static const std::pair<const char *, AppSpec (*)()> kApps[] = {
        {"toy", makeToyCounter},
        {"firewall", makeSimpleFirewall},
        {"router", makeRouterIpv4},
        {"router_ipv4", makeRouterIpv4},
        {"tunnel", makeTxIpTunnel},
        {"dnat", makeDnat},
        {"suricata", makeSuricataFilter},
        {"leaky_bucket", makeLeakyBucket},
        {"lb", makeL4LoadBalancer},
        {"monitor", makeMonitorSampler},
    };
    std::string known;
    for (const auto &[key, make] : kApps) {
        if (name == key)
            return make();
        known += std::string(known.empty() ? "" : ", ") + key;
    }
    fatal("unknown built-in app '", ref, "' (known: ", known, ")");
}

}  // namespace ehdl::apps
