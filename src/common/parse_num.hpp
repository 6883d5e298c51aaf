/**
 * @file
 * Checked parsing of the numeric values given to command-line flags and
 * to the text formats (.ctl schedules, .ehdlcase files), shared by every
 * tool. std::stoul/stoull/stod are not used because they accept a
 * leading '-' (stoull wraps it: "-1" parses as UINT64_MAX), skip leading
 * whitespace, ignore trailing junk ("0.5x" parses as 0.5), and report
 * errors without naming the flag.
 */

#ifndef EHDL_COMMON_PARSE_NUM_HPP_
#define EHDL_COMMON_PARSE_NUM_HPP_

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>

#include "common/logging.hpp"

namespace ehdl {

/**
 * Parse @p text as a decimal integer in [0, @p max]. Returns nullopt on
 * an empty string, any sign or whitespace, trailing characters, or a
 * value above @p max.
 */
std::optional<uint64_t> parseDecimal(std::string_view text,
                                     uint64_t max = UINT64_MAX);

/**
 * Parse the value of flag @p flag as a T. fatal() naming the flag when
 * the value is missing (@p value null) or is not a decimal number
 * between 0 and T's maximum.
 */
template <typename T>
T
parseNum(const char *flag, const char *value)
{
    static_assert(std::is_integral_v<T>);
    constexpr uint64_t kMax =
        static_cast<uint64_t>(std::numeric_limits<T>::max());
    if (value == nullptr)
        fatal(flag, " requires a value");
    const std::optional<uint64_t> v = parseDecimal(value, kMax);
    if (!v)
        fatal(flag, ": expected a number from 0 to ", kMax, ", got '",
              value, "'");
    return static_cast<T>(*v);
}

/**
 * Parse @p text as a non-negative finite real ("2", "0.25", "1e3").
 * Returns nullopt on an empty string, any sign or whitespace, trailing
 * characters, or an infinite or NaN value.
 */
std::optional<double> parseNonNegativeReal(std::string_view text);

/**
 * Parse the value of flag @p flag as a non-negative finite real. fatal()
 * naming the flag when the value is missing or malformed.
 */
double parseReal(const char *flag, const char *value);

}  // namespace ehdl

#endif  // EHDL_COMMON_PARSE_NUM_HPP_
