/**
 * @file
 * ELF object support: load eBPF programs from relocatable ELF objects
 * (what `clang -target bpf -c prog.c` emits) and write them back.
 *
 * The loader handles the parts of the libbpf legacy conventions that XDP
 * programs use: a "maps" section holding struct bpf_map_def entries named
 * by their symbols, program bytes in an executable PROGBITS section, and
 * R_BPF_64_64 relocations patching map references into lddw instructions.
 * This is what lets eHDL consume *unmodified* compiled programs (paper
 * section 1: "eHDL takes unmodified eBPF programs").
 */

#ifndef EHDL_EBPF_ELF_HPP_
#define EHDL_EBPF_ELF_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/program.hpp"

namespace ehdl::ebpf {

/** Linux bpf_map_type values the loader understands. */
enum : uint32_t {
    kBpfMapTypeHash = 1,
    kBpfMapTypeArray = 2,
    kBpfMapTypeLruHash = 9,
    kBpfMapTypeLpmTrie = 11,
};

/**
 * Parse a relocatable eBPF ELF object.
 *
 * @param bytes    The object file contents.
 * @param name     Program name (defaults to the program section's name).
 * @param section  Program section to load; empty selects the first
 *                 non-empty executable section.
 * @throw FatalError on malformed objects or unsupported map types.
 */
Program loadElf(const std::vector<uint8_t> &bytes,
                const std::string &name = "",
                const std::string &section = "");

/**
 * Serialize @p prog as a relocatable ELF object using the same
 * conventions loadElf() consumes (program section named "xdp", legacy
 * "maps" section, R_BPF_64_64 relocations for map loads).
 */
std::vector<uint8_t> writeElf(const Program &prog);

}  // namespace ehdl::ebpf

#endif  // EHDL_EBPF_ELF_HPP_
