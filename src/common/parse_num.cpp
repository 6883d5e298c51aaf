#include "common/parse_num.hpp"

#include <charconv>
#include <cmath>

namespace ehdl {

std::optional<uint64_t>
parseDecimal(std::string_view text, uint64_t max)
{
    // from_chars rejects signs and whitespace for unsigned types and
    // reports overflow instead of wrapping.
    uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

std::optional<double>
parseNonNegativeReal(std::string_view text)
{
    // from_chars takes no '+' or whitespace but does take a '-', which
    // is refused up front so "-0" is rejected too.
    if (text.empty() || text.front() == '-')
        return std::nullopt;
    double v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        return std::nullopt;
    return v;
}

double
parseReal(const char *flag, const char *value)
{
    if (value == nullptr)
        fatal(flag, " requires a value");
    const std::optional<double> v = parseNonNegativeReal(value);
    if (!v)
        fatal(flag, ": expected a non-negative number, got '", value, "'");
    return *v;
}

}  // namespace ehdl
