#include "common/hex.hpp"

#include <charconv>

namespace ehdl {

std::string
toHex(const std::vector<uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const uint8_t b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

std::optional<std::vector<uint8_t>>
fromHex(std::string_view hex)
{
    if (hex.size() % 2 != 0)
        return std::nullopt;
    std::vector<uint8_t> out(hex.size() / 2);
    for (size_t i = 0; i < out.size(); ++i) {
        const auto [ptr, ec] =
            std::from_chars(&hex[2 * i], &hex[2 * i] + 2, out[i], 16);
        if (ec != std::errc() || ptr != &hex[2 * i] + 2)
            return std::nullopt;
    }
    return out;
}

}  // namespace ehdl
