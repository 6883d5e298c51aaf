#include "common/parse_num.hpp"

#include <charconv>

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

}  // namespace ehdl
