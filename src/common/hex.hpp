/**
 * @file
 * Lower-case hex rendering of byte strings, and its checked inverse, for
 * the text formats that carry raw bytes (map keys and values in .ctl
 * schedules, instruction slots and packets in .ehdlcase files, op
 * results in ehdl-ctl's JSON).
 */

#ifndef EHDL_COMMON_HEX_HPP_
#define EHDL_COMMON_HEX_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ehdl {

/** Two lower-case hex digits per byte, no separators. */
std::string toHex(const std::vector<uint8_t> &bytes);

/**
 * Parse an even-length string of hex digits (either case). Returns
 * nullopt on an odd length or a non-hex character.
 */
std::optional<std::vector<uint8_t>> fromHex(std::string_view hex);

}  // namespace ehdl

#endif  // EHDL_COMMON_HEX_HPP_
