#include "ebpf/elf.hpp"

#include <cstring>
#include <map>

#include "common/bitops.hpp"
#include "common/logging.hpp"
#include "ebpf/codec.hpp"

namespace ehdl::ebpf {

namespace {

// --- ELF64 constants (little-endian) -----------------------------------

constexpr uint16_t kEtRel = 1;
constexpr uint16_t kEmBpf = 247;
constexpr uint32_t kShtProgbits = 1;
constexpr uint32_t kShtSymtab = 2;
constexpr uint32_t kShtStrtab = 3;
constexpr uint32_t kShtRel = 9;
constexpr uint64_t kShfExecinstr = 0x4;
constexpr uint32_t kRBpf6464 = 1;

constexpr size_t kEhdrSize = 64;
constexpr size_t kShdrSize = 64;
constexpr size_t kSymSize = 24;
constexpr size_t kRelSize = 16;

struct Section
{
    std::string name;
    uint32_t type = 0;
    uint64_t flags = 0;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t link = 0;
    uint32_t info = 0;
    uint64_t entsize = 0;
};

struct Symbol
{
    std::string name;
    uint16_t shndx = 0;
    uint64_t value = 0;
};

/** libbpf legacy struct bpf_map_def (20 bytes, may be padded). */
struct BpfMapDef
{
    uint32_t type;
    uint32_t keySize;
    uint32_t valueSize;
    uint32_t maxEntries;
    uint32_t mapFlags;
};

class Reader
{
  public:
    explicit Reader(const std::vector<uint8_t> &bytes) : bytes_(bytes) {}

    template <typename T>
    T
    at(uint64_t off) const
    {
        if (off + sizeof(T) > bytes_.size())
            fatal("ELF: truncated read at offset ", off);
        T value;
        std::memcpy(&value, bytes_.data() + off, sizeof(T));
        return value;
    }

    std::string
    cstr(uint64_t off) const
    {
        std::string out;
        while (off < bytes_.size() && bytes_[off] != 0)
            out.push_back(static_cast<char>(bytes_[off++]));
        return out;
    }

    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    const std::vector<uint8_t> &bytes_;
};

MapKind
mapKindFromBpfType(uint32_t type, const std::string &name)
{
    switch (type) {
      case kBpfMapTypeHash: return MapKind::Hash;
      case kBpfMapTypeArray: return MapKind::Array;
      case kBpfMapTypeLruHash: return MapKind::LruHash;
      case kBpfMapTypeLpmTrie: return MapKind::LpmTrie;
      default:
        fatal("ELF: map '", name, "' has unsupported bpf_map_type ", type);
    }
}

uint32_t
bpfTypeFromMapKind(MapKind kind)
{
    switch (kind) {
      case MapKind::Hash: return kBpfMapTypeHash;
      case MapKind::Array: return kBpfMapTypeArray;
      case MapKind::LruHash: return kBpfMapTypeLruHash;
      case MapKind::LpmTrie: return kBpfMapTypeLpmTrie;
    }
    return kBpfMapTypeArray;
}

}  // namespace

Program
loadElf(const std::vector<uint8_t> &bytes, const std::string &name,
        const std::string &section)
{
    Reader elf(bytes);
    if (bytes.size() < kEhdrSize || std::memcmp(bytes.data(), "\x7f"
                                                              "ELF",
                                                4) != 0)
        fatal("ELF: bad magic");
    if (bytes[4] != 2 || bytes[5] != 1)
        fatal("ELF: expected 64-bit little-endian");
    if (elf.at<uint16_t>(0x10) != kEtRel)
        fatal("ELF: expected a relocatable object (ET_REL)");
    const uint16_t machine = elf.at<uint16_t>(0x12);
    if (machine != kEmBpf && machine != 0)
        fatal("ELF: expected EM_BPF machine, got ", machine);

    const uint64_t shoff = elf.at<uint64_t>(0x28);
    const uint16_t shentsize = elf.at<uint16_t>(0x3a);
    const uint16_t shnum = elf.at<uint16_t>(0x3c);
    const uint16_t shstrndx = elf.at<uint16_t>(0x3e);
    if (shentsize != kShdrSize)
        fatal("ELF: unexpected section header size");

    std::vector<Section> sections(shnum);
    const uint64_t shstr_off =
        elf.at<uint64_t>(shoff + uint64_t(shstrndx) * kShdrSize + 0x18);
    for (uint16_t i = 0; i < shnum; ++i) {
        const uint64_t base = shoff + uint64_t(i) * kShdrSize;
        Section &sec = sections[i];
        sec.name = elf.cstr(shstr_off + elf.at<uint32_t>(base + 0x00));
        sec.type = elf.at<uint32_t>(base + 0x04);
        sec.flags = elf.at<uint64_t>(base + 0x08);
        sec.offset = elf.at<uint64_t>(base + 0x18);
        sec.size = elf.at<uint64_t>(base + 0x20);
        sec.link = elf.at<uint32_t>(base + 0x28);
        sec.info = elf.at<uint32_t>(base + 0x2c);
        sec.entsize = elf.at<uint64_t>(base + 0x38);
    }

    // Symbol table.
    std::vector<Symbol> symbols;
    uint16_t symtab_idx = 0;
    for (uint16_t i = 0; i < shnum; ++i) {
        if (sections[i].type != kShtSymtab)
            continue;
        symtab_idx = i;
        const Section &symtab = sections[i];
        const uint64_t strtab_off = sections.at(symtab.link).offset;
        const size_t count = symtab.size / kSymSize;
        for (size_t s = 0; s < count; ++s) {
            const uint64_t base = symtab.offset + s * kSymSize;
            Symbol sym;
            sym.name = elf.cstr(strtab_off + elf.at<uint32_t>(base));
            sym.shndx = elf.at<uint16_t>(base + 6);
            sym.value = elf.at<uint64_t>(base + 8);
            symbols.push_back(sym);
        }
    }
    (void)symtab_idx;

    // Maps section: one map per symbol, ordered by offset.
    Program prog;
    uint16_t maps_idx = 0;
    std::map<uint64_t, std::string> map_syms;
    for (uint16_t i = 0; i < shnum; ++i) {
        if (sections[i].name != "maps")
            continue;
        maps_idx = i;
        for (const Symbol &sym : symbols)
            if (sym.shndx == i && !sym.name.empty())
                map_syms[sym.value] = sym.name;
        const uint64_t def_size =
            map_syms.empty() ? sizeof(BpfMapDef)
                             : sections[i].size / map_syms.size();
        if (def_size < sizeof(BpfMapDef))
            fatal("ELF: maps section entries too small");
        for (const auto &[off, sym_name] : map_syms) {
            const uint64_t base = sections[i].offset + off;
            BpfMapDef def;
            def.type = elf.at<uint32_t>(base);
            def.keySize = elf.at<uint32_t>(base + 4);
            def.valueSize = elf.at<uint32_t>(base + 8);
            def.maxEntries = elf.at<uint32_t>(base + 12);
            MapDef out;
            out.name = sym_name;
            out.kind = mapKindFromBpfType(def.type, sym_name);
            out.keySize = def.keySize;
            out.valueSize = def.valueSize;
            out.maxEntries = def.maxEntries;
            prog.maps.push_back(out);
        }
    }
    // Map symbol offset -> map index (insertion order above).
    std::map<uint64_t, uint32_t> map_index_by_off;
    {
        uint32_t idx = 0;
        for (const auto &[off, sym_name] : map_syms)
            map_index_by_off[off] = idx++;
    }

    // Program section.
    uint16_t prog_idx = 0;
    for (uint16_t i = 0; i < shnum; ++i) {
        const Section &sec = sections[i];
        const bool executable =
            sec.type == kShtProgbits && (sec.flags & kShfExecinstr);
        if (!executable)
            continue;
        // LLVM emits an empty .text ahead of the named program section;
        // without a name, the first section holding code is the program.
        if (section.empty() ? sec.size == 0 : sec.name != section)
            continue;
        prog_idx = i;
        break;
    }
    if (prog_idx == 0)
        fatal("ELF: no executable program section",
              section.empty() ? "" : (" named '" + section + "'").c_str());

    const Section &text = sections[prog_idx];
    std::vector<uint8_t> code(bytes.begin() + text.offset,
                              bytes.begin() + text.offset + text.size);

    // Apply R_BPF_64_64 relocations: point lddw at the referenced map.
    for (uint16_t i = 0; i < shnum; ++i) {
        const Section &rel = sections[i];
        if (rel.type != kShtRel || rel.info != prog_idx)
            continue;
        const size_t count = rel.size / kRelSize;
        for (size_t r = 0; r < count; ++r) {
            const uint64_t base = rel.offset + r * kRelSize;
            const uint64_t r_offset = elf.at<uint64_t>(base);
            const uint64_t r_info = elf.at<uint64_t>(base + 8);
            const uint32_t r_type = static_cast<uint32_t>(r_info);
            const uint32_t r_sym = static_cast<uint32_t>(r_info >> 32);
            if (r_type != kRBpf6464)
                fatal("ELF: unsupported relocation type ", r_type);
            if (r_sym >= symbols.size())
                fatal("ELF: relocation references bad symbol");
            const Symbol &sym = symbols[r_sym];
            if (sym.shndx != maps_idx)
                fatal("ELF: relocation against non-map symbol '",
                      sym.name, "'");
            auto it = map_index_by_off.find(sym.value);
            if (it == map_index_by_off.end())
                fatal("ELF: relocation against unknown map offset");
            if (r_offset + 8 > code.size() || code[r_offset] != 0x18)
                fatal("ELF: relocation target is not an lddw");
            // src_reg = BPF_PSEUDO_MAP_FD, imm = map index.
            code[r_offset + 1] =
                static_cast<uint8_t>((kPseudoMapFd << 4) |
                                     (code[r_offset + 1] & 0x0f));
            storeLe<uint32_t>(code.data() + r_offset + 4, it->second);
        }
    }

    prog.insns = decode(code);
    prog.name = !name.empty() ? name : sections[prog_idx].name;
    return prog;
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

namespace {

class Writer
{
  public:
    std::vector<uint8_t> out;

    template <typename T>
    void
    put(T value)
    {
        const size_t at = out.size();
        out.resize(at + sizeof(T));
        std::memcpy(out.data() + at, &value, sizeof(T));
    }

    void
    putBytes(const std::vector<uint8_t> &bytes)
    {
        out.insert(out.end(), bytes.begin(), bytes.end());
    }

    void
    pad(size_t align)
    {
        while (out.size() % align != 0)
            out.push_back(0);
    }
};

}  // namespace

std::vector<uint8_t>
writeElf(const Program &prog)
{
    // String tables.
    std::vector<std::string> shnames = {"",       "xdp",     "maps",
                                        ".symtab", ".strtab", ".rel.xdp",
                                        ".shstrtab"};
    std::string shstrtab(1, '\0');
    std::vector<uint32_t> shname_off;
    for (const std::string &n : shnames) {
        shname_off.push_back(n.empty()
                                 ? 0
                                 : static_cast<uint32_t>(shstrtab.size()));
        if (!n.empty()) {
            shstrtab += n;
            shstrtab.push_back('\0');
        }
    }

    std::string strtab(1, '\0');
    std::vector<uint32_t> symname_off;
    for (const MapDef &def : prog.maps) {
        symname_off.push_back(static_cast<uint32_t>(strtab.size()));
        strtab += def.name;
        strtab.push_back('\0');
    }

    // Program bytes: encode with map lddw imm temporarily zeroed (the
    // relocations restore the indices), matching what clang emits.
    std::vector<Insn> insns = prog.insns;
    struct RelSite
    {
        uint64_t offset;  // byte offset of the lddw in the section
        uint32_t mapIndex;
    };
    std::vector<RelSite> relocations;
    {
        uint64_t byte_off = 0;
        for (Insn &insn : insns) {
            const bool lddw = insn.isLddw();
            if (lddw && insn.isMapLoad) {
                relocations.push_back(
                    {byte_off, static_cast<uint32_t>(insn.imm)});
                insn.isMapLoad = false;  // encode as plain lddw imm 0
                insn.src = 0;
                insn.imm = 0;
            }
            byte_off += lddw ? 16 : 8;
        }
    }
    const std::vector<uint8_t> code = encode(insns);

    // maps section: legacy bpf_map_def entries.
    std::vector<uint8_t> maps_bytes;
    for (const MapDef &def : prog.maps) {
        Writer w;
        w.put<uint32_t>(bpfTypeFromMapKind(def.kind));
        w.put<uint32_t>(def.keySize);
        w.put<uint32_t>(def.valueSize);
        w.put<uint32_t>(def.maxEntries);
        w.put<uint32_t>(0);  // map_flags
        maps_bytes.insert(maps_bytes.end(), w.out.begin(), w.out.end());
    }
    const uint64_t map_def_size = 20;

    // Symbol table: null symbol + one per map.
    std::vector<uint8_t> symtab_bytes;
    {
        Writer w;
        w.put<uint32_t>(0);
        w.put<uint8_t>(0);
        w.put<uint8_t>(0);
        w.put<uint16_t>(0);
        w.put<uint64_t>(0);
        w.put<uint64_t>(0);
        for (size_t m = 0; m < prog.maps.size(); ++m) {
            w.put<uint32_t>(symname_off[m]);
            w.put<uint8_t>(0x11);  // GLOBAL | OBJECT
            w.put<uint8_t>(0);
            w.put<uint16_t>(2);  // section index of "maps"
            w.put<uint64_t>(m * map_def_size);
            w.put<uint64_t>(map_def_size);
        }
        symtab_bytes = std::move(w.out);
    }

    // Relocations against the xdp section.
    std::vector<uint8_t> rel_bytes;
    {
        Writer w;
        for (const RelSite &site : relocations) {
            w.put<uint64_t>(site.offset);
            const uint64_t sym = 1 + site.mapIndex;  // after null symbol
            w.put<uint64_t>((sym << 32) | kRBpf6464);
        }
        rel_bytes = std::move(w.out);
    }

    // Assemble the file: header | section bodies | section headers.
    Writer elf;
    elf.out.resize(kEhdrSize, 0);
    std::memcpy(elf.out.data(), "\x7f"
                                "ELF",
                4);
    elf.out[4] = 2;  // 64-bit
    elf.out[5] = 1;  // little-endian
    elf.out[6] = 1;  // version

    struct Body
    {
        uint64_t offset;
        uint64_t size;
    };
    auto place = [&elf](const std::vector<uint8_t> &bytes) {
        elf.pad(8);
        Body body{elf.out.size(), bytes.size()};
        elf.putBytes(bytes);
        return body;
    };
    const Body code_body = place(code);
    const Body maps_body = place(maps_bytes);
    const Body symtab_body = place(symtab_bytes);
    const Body strtab_body =
        place(std::vector<uint8_t>(strtab.begin(), strtab.end()));
    const Body rel_body = place(rel_bytes);
    const Body shstr_body =
        place(std::vector<uint8_t>(shstrtab.begin(), shstrtab.end()));

    elf.pad(8);
    const uint64_t shoff = elf.out.size();

    auto shdr = [&elf, &shname_off](unsigned name_idx, uint32_t type,
                                    uint64_t flags, Body body,
                                    uint32_t link, uint32_t info,
                                    uint64_t entsize) {
        elf.put<uint32_t>(shname_off[name_idx]);
        elf.put<uint32_t>(type);
        elf.put<uint64_t>(flags);
        elf.put<uint64_t>(0);  // addr
        elf.put<uint64_t>(body.offset);
        elf.put<uint64_t>(body.size);
        elf.put<uint32_t>(link);
        elf.put<uint32_t>(info);
        elf.put<uint64_t>(8);  // addralign
        elf.put<uint64_t>(entsize);
    };
    shdr(0, 0, 0, {0, 0}, 0, 0, 0);                       // null
    shdr(1, kShtProgbits, kShfExecinstr | 0x2, code_body, // 1: xdp
         0, 0, 0);
    shdr(2, kShtProgbits, 0x3, maps_body, 0, 0, 0);       // 2: maps
    shdr(3, kShtSymtab, 0, symtab_body, 4, 1, kSymSize);  // 3: symtab
    shdr(4, kShtStrtab, 0, strtab_body, 0, 0, 0);         // 4: strtab
    shdr(5, kShtRel, 0, rel_body, 3, 1, kRelSize);        // 5: rel.xdp
    shdr(6, kShtStrtab, 0, shstr_body, 0, 0, 0);          // 6: shstrtab

    // Patch the ELF header.
    storeLe<uint16_t>(elf.out.data() + 0x10, kEtRel);
    storeLe<uint16_t>(elf.out.data() + 0x12, kEmBpf);
    storeLe<uint32_t>(elf.out.data() + 0x14, 1);  // e_version
    storeLe<uint64_t>(elf.out.data() + 0x28, shoff);
    storeLe<uint16_t>(elf.out.data() + 0x34, kEhdrSize);
    storeLe<uint16_t>(elf.out.data() + 0x3a, kShdrSize);
    storeLe<uint16_t>(elf.out.data() + 0x3c, 7);
    storeLe<uint16_t>(elf.out.data() + 0x3e, 6);
    return elf.out;
}

}  // namespace ehdl::ebpf
