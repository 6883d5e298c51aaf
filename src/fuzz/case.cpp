#include "fuzz/case.hpp"

#include <fstream>
#include <sstream>

#include "common/hex.hpp"
#include "common/logging.hpp"
#include "common/parse_num.hpp"
#include "ebpf/codec.hpp"

namespace ehdl::fuzz {

namespace {

std::vector<uint8_t>
parseHex(const std::string &hex, size_t line)
{
    std::optional<std::vector<uint8_t>> bytes = fromHex(hex);
    if (!bytes)
        fatal("ehdlcase line ", line,
              ": expected an even-length hex string, got '", hex, "'");
    return std::move(*bytes);
}

ebpf::MapKind
parseMapKind(const std::string &word, size_t line)
{
    if (word == "array")
        return ebpf::MapKind::Array;
    if (word == "hash")
        return ebpf::MapKind::Hash;
    if (word == "lru_hash")
        return ebpf::MapKind::LruHash;
    if (word == "lpm_trie")
        return ebpf::MapKind::LpmTrie;
    fatal("ehdlcase line ", line, ": unknown map kind '", word, "'");
}

uint64_t
parseU64(const std::string &word, size_t line, uint64_t max = UINT64_MAX)
{
    const std::optional<uint64_t> v = parseDecimal(word, max);
    if (!v)
        fatal("ehdlcase line ", line, ": expected an integer from 0 to ",
              max, ", got '", word, "'");
    return *v;
}

}  // namespace

std::vector<net::Packet>
FuzzCase::materializePackets() const
{
    std::vector<net::Packet> out;
    out.reserve(packets.size());
    for (const CasePacket &cp : packets) {
        net::Packet p(cp.bytes);
        p.id = cp.id;
        p.arrivalNs = cp.arrivalNs;
        out.push_back(std::move(p));
    }
    return out;
}

std::string
serializeCase(const FuzzCase &c)
{
    std::ostringstream os;
    os << "# eHDL differential fuzz case\n";
    os << "format 1\n";
    os << "name " << c.name << "\n";
    os << "program-seed " << c.programSeed << "\n";
    os << "traffic-seed " << c.trafficSeed << "\n";
    os << "expect " << (c.expectDivergence ? "divergence" : "agreement")
       << "\n";
    os << "option frame-bytes " << c.options.frameBytes << "\n";
    os << "option pruning " << (c.options.enablePruning ? 1 : 0) << "\n";
    os << "option ilp " << (c.options.enableIlp ? 1 : 0) << "\n";
    os << "option fusion " << (c.options.enableFusion ? 1 : 0) << "\n";
    os << "option max-loop-trips " << c.options.maxLoopTrips << "\n";
    os << "option parse-depth " << c.options.assumedParseDepthBytes << "\n";
    os << "option clock-mhz " << c.options.clockMhz << "\n";
    os << "option disable-war-buffers "
       << (c.options.unsafeDisableWarBuffers ? 1 : 0) << "\n";
    os << "option disable-flush-blocks "
       << (c.options.unsafeDisableFlushBlocks ? 1 : 0) << "\n";
    for (const ebpf::MapDef &m : c.prog.maps) {
        os << "map " << m.name << " " << ebpf::mapKindName(m.kind) << " "
           << m.keySize << " " << m.valueSize << " " << m.maxEntries << "\n";
    }
    // One 8-byte wire slot per line (lddw occupies two consecutive lines).
    const std::vector<uint8_t> wire = ebpf::encode(c.prog.insns);
    for (size_t i = 0; i < wire.size(); i += 8) {
        os << "insn "
           << toHex({wire.begin() + i, wire.begin() + i + 8}) << "\n";
    }
    for (const CasePacket &p : c.packets) {
        os << "packet " << p.id << " " << p.arrivalNs << " "
           << toHex(p.bytes) << "\n";
    }
    if (!c.ctl.txns.empty()) {
        // One `ctl` directive per schedule line, reusing the `.ctl`
        // format verbatim after the directive word.
        std::istringstream cs(ctl::serializeSchedule(c.ctl));
        std::string line;
        while (std::getline(cs, line))
            os << "ctl " << line << "\n";
    }
    os << "end\n";
    return os.str();
}

FuzzCase
parseCase(const std::string &text)
{
    FuzzCase c;
    c.prog.maps.clear();
    std::vector<uint8_t> wire;
    std::string ctl_text;
    bool saw_format = false;
    bool saw_end = false;

    std::istringstream is(text);
    std::string raw;
    size_t lineno = 0;
    while (std::getline(is, raw)) {
        ++lineno;
        if (raw.empty() || raw[0] == '#')
            continue;
        if (saw_end)
            fatal("ehdlcase line ", lineno, ": content after 'end'");
        std::istringstream ls(raw);
        std::string key;
        ls >> key;
        if (key == "format") {
            std::string v;
            ls >> v;
            if (v != "1")
                fatal("ehdlcase line ", lineno, ": unsupported format '", v,
                      "'");
            saw_format = true;
        } else if (key == "name") {
            ls >> c.name;
        } else if (key == "program-seed") {
            std::string v;
            ls >> v;
            c.programSeed = parseU64(v, lineno);
        } else if (key == "traffic-seed") {
            std::string v;
            ls >> v;
            c.trafficSeed = parseU64(v, lineno);
        } else if (key == "expect") {
            std::string v;
            ls >> v;
            if (v == "divergence")
                c.expectDivergence = true;
            else if (v == "agreement")
                c.expectDivergence = false;
            else
                fatal("ehdlcase line ", lineno, ": expect must be "
                      "'divergence' or 'agreement', got '", v, "'");
        } else if (key == "option") {
            std::string opt, val;
            ls >> opt >> val;
            const uint64_t v = parseU64(val, lineno, UINT32_MAX);
            if (opt == "frame-bytes")
                c.options.frameBytes = static_cast<unsigned>(v);
            else if (opt == "pruning")
                c.options.enablePruning = v != 0;
            else if (opt == "ilp")
                c.options.enableIlp = v != 0;
            else if (opt == "fusion")
                c.options.enableFusion = v != 0;
            else if (opt == "max-loop-trips")
                c.options.maxLoopTrips = static_cast<unsigned>(v);
            else if (opt == "parse-depth")
                c.options.assumedParseDepthBytes = static_cast<unsigned>(v);
            else if (opt == "clock-mhz")
                c.options.clockMhz = static_cast<unsigned>(v);
            else if (opt == "disable-war-buffers")
                c.options.unsafeDisableWarBuffers = v != 0;
            else if (opt == "disable-flush-blocks")
                c.options.unsafeDisableFlushBlocks = v != 0;
            else
                fatal("ehdlcase line ", lineno, ": unknown option '", opt,
                      "'");
        } else if (key == "map") {
            ebpf::MapDef def;
            std::string kind, ks, vs, me;
            ls >> def.name >> kind >> ks >> vs >> me;
            if (def.name.empty() || me.empty())
                fatal("ehdlcase line ", lineno, ": malformed map line");
            def.kind = parseMapKind(kind, lineno);
            def.keySize = static_cast<uint32_t>(
                parseU64(ks, lineno, UINT32_MAX));
            def.valueSize = static_cast<uint32_t>(
                parseU64(vs, lineno, UINT32_MAX));
            def.maxEntries = static_cast<uint32_t>(
                parseU64(me, lineno, UINT32_MAX));
            c.prog.maps.push_back(def);
        } else if (key == "insn") {
            std::string hex;
            ls >> hex;
            const std::vector<uint8_t> slot = parseHex(hex, lineno);
            if (slot.size() != 8)
                fatal("ehdlcase line ", lineno,
                      ": insn must be exactly 8 bytes");
            wire.insert(wire.end(), slot.begin(), slot.end());
        } else if (key == "packet") {
            CasePacket p;
            std::string id, ns, hex;
            ls >> id >> ns >> hex;
            if (hex.empty())
                fatal("ehdlcase line ", lineno, ": malformed packet line");
            p.id = parseU64(id, lineno);
            p.arrivalNs = parseU64(ns, lineno);
            p.bytes = parseHex(hex, lineno);
            c.packets.push_back(std::move(p));
        } else if (key == "ctl") {
            std::string rest;
            std::getline(ls, rest);
            if (!rest.empty() && rest[0] == ' ')
                rest.erase(0, 1);
            if (rest.empty())
                fatal("ehdlcase line ", lineno, ": empty ctl directive");
            ctl_text += rest;
            ctl_text += '\n';
        } else if (key == "end") {
            saw_end = true;
        } else {
            fatal("ehdlcase line ", lineno, ": unknown directive '", key,
                  "'");
        }
    }
    if (!saw_format)
        fatal("ehdlcase: missing 'format' line");
    if (!saw_end)
        fatal("ehdlcase: missing 'end' line (truncated file?)");
    if (wire.empty())
        fatal("ehdlcase: no instructions");
    if (!ctl_text.empty())
        c.ctl = ctl::parseSchedule(ctl_text);
    c.prog.insns = ebpf::decode(wire);
    c.prog.name = c.name;
    return c;
}

void
saveCase(const FuzzCase &c, const std::string &path)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    os << serializeCase(c);
    if (!os.flush())
        fatal("write to '", path, "' failed");
}

FuzzCase
loadCase(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '", path, "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseCase(buf.str());
}

}  // namespace ehdl::fuzz
