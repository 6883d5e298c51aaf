/**
 * @file
 * Unit tests for src/common: bit helpers, deterministic RNG, the Zipf
 * sampler, the table printer and the command-line number parser.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "common/bitops.hpp"
#include "common/hex.hpp"
#include "common/logging.hpp"
#include "common/parse_num.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"

namespace ehdl {
namespace {

TEST(BitOps, SignExtendWidths)
{
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0xffffffffULL, 32), -1);
    EXPECT_EQ(signExtend(0x1, 1), -1);
    EXPECT_EQ(signExtend(0x0, 1), 0);
    EXPECT_EQ(signExtend(0x123, 64), 0x123);
}

TEST(BitOps, LowBits)
{
    EXPECT_EQ(lowBits(0xdeadbeefcafef00dULL, 32), 0xcafef00dULL);
    EXPECT_EQ(lowBits(0xffULL, 4), 0xfULL);
    EXPECT_EQ(lowBits(0x1234ULL, 64), 0x1234ULL);
    EXPECT_EQ(lowBits(~0ULL, 0), 0ULL);
}

TEST(BitOps, ByteSwaps)
{
    EXPECT_EQ(bswap16(0x1234), 0x3412);
    EXPECT_EQ(bswap32(0x12345678u), 0x78563412u);
    EXPECT_EQ(bswap64(0x0102030405060708ULL), 0x0807060504030201ULL);
}

TEST(BitOps, LoadStoreEndianness)
{
    uint8_t buf[8] = {};
    storeBe<uint32_t>(buf, 0x0a000001);
    EXPECT_EQ(buf[0], 0x0a);
    EXPECT_EQ(buf[3], 0x01);
    EXPECT_EQ(loadBe<uint32_t>(buf), 0x0a000001u);
    storeLe<uint32_t>(buf, 0x0a000001);
    EXPECT_EQ(buf[0], 0x01);
    EXPECT_EQ(loadLe<uint32_t>(buf), 0x0a000001u);
}

TEST(BitOps, CeilDivRoundUp)
{
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
    EXPECT_EQ(roundUp(10, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Zipf, ProbabilitiesSumToOne)
{
    ZipfSampler zipf(100, 1.0);
    double total = 0;
    for (uint64_t i = 0; i < 100; ++i)
        total += zipf.probability(i);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, RankZeroIsMostPopular)
{
    ZipfSampler zipf(1000, 1.0);
    EXPECT_GT(zipf.probability(0), zipf.probability(1));
    EXPECT_GT(zipf.probability(1), zipf.probability(50));
    EXPECT_GT(zipf.probability(50), zipf.probability(999));
}

TEST(Zipf, EmpiricalSkewMatches)
{
    ZipfSampler zipf(50, 1.0);
    Rng rng(3);
    std::map<uint64_t, int> counts;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        counts[zipf.sample(rng)]++;
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, zipf.probability(0),
                0.01);
    EXPECT_GT(counts[0], counts[10]);
}

TEST(Zipf, RejectsEmpty)
{
    EXPECT_THROW(ZipfSampler(0), FatalError);
}

TEST(Logging, FatalAndPanicThrow)
{
    EXPECT_THROW(fatal("bad input ", 42), FatalError);
    EXPECT_THROW(panic("bug ", 1, " two"), PanicError);
    try {
        fatal("value=", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7");
    }
}

TEST(ParseNum, AcceptsDecimalInRange)
{
    EXPECT_EQ(parseDecimal("0"), 0u);
    EXPECT_EQ(parseDecimal("42"), 42u);
    EXPECT_EQ(parseDecimal("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseDecimal("255", 255), 255u);
    EXPECT_EQ(parseNum<unsigned>("--n", "4294967295"), 4294967295u);
    EXPECT_EQ(parseNum<int>("--n", "2147483647"), 2147483647);
}

TEST(ParseNum, RejectsSignsJunkEmptyAndOverflow)
{
    // std::stoull("-1") wraps to UINT64_MAX; the shared parser must not.
    for (const char *bad : {"-1", "-0", "+1", "12x", "x12", "", " 1", "1 ",
                            "0x10", "1.5"})
        EXPECT_EQ(parseDecimal(bad), std::nullopt) << "'" << bad << "'";
    EXPECT_EQ(parseDecimal("18446744073709551616"), std::nullopt);
    EXPECT_EQ(parseDecimal("256", 255), std::nullopt);

    EXPECT_THROW(parseNum<unsigned>("--replicas", "-1"), FatalError);
    EXPECT_THROW(parseNum<unsigned>("--replicas", "12x"), FatalError);
    EXPECT_THROW(parseNum<unsigned>("--replicas", ""), FatalError);
    EXPECT_THROW(parseNum<unsigned>("--replicas", "4294967296"), FatalError);
    EXPECT_THROW(parseNum<int>("--packets", "2147483648"), FatalError);
    EXPECT_THROW(parseNum<uint64_t>("--seed", "18446744073709551616"),
                 FatalError);
    EXPECT_THROW(parseNum<unsigned>("--replicas", nullptr), FatalError);
}

TEST(ParseNum, ErrorNamesTheFlagAndValue)
{
    try {
        parseNum<unsigned>("--replicas", "-1");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--replicas"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'-1'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("4294967295"), std::string::npos) << msg;
    }
    try {
        parseNum<unsigned>("--replicas", nullptr);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("requires a value"),
                  std::string::npos);
    }
}

TEST(ParseNum, RealAcceptsNonNegativeFinite)
{
    EXPECT_EQ(parseNonNegativeReal("0"), 0.0);
    EXPECT_EQ(parseNonNegativeReal("2"), 2.0);
    EXPECT_EQ(parseNonNegativeReal("0.25"), 0.25);
    EXPECT_EQ(parseNonNegativeReal("1e3"), 1000.0);
    EXPECT_EQ(parseReal("--host-rate", "1.5"), 1.5);
}

TEST(ParseNum, RealRejectsSignsJunkAndNonFinite)
{
    // std::stod accepts all but the empty string and "x0.5" here.
    for (const char *bad : {"-1", "-0", "+1", "0.5x", "x0.5", "", " 1", "1 ",
                            "inf", "nan", "1e999"})
        EXPECT_EQ(parseNonNegativeReal(bad), std::nullopt)
            << "'" << bad << "'";
    try {
        parseReal("--zipf", "abc");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--zipf"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'abc'"), std::string::npos) << msg;
    }
    EXPECT_THROW(parseReal("--host-frac", nullptr), FatalError);
}

TEST(Hex, RoundTripsAndRejectsMalformed)
{
    const std::vector<uint8_t> bytes = {0x00, 0x7f, 0xa5, 0xff};
    EXPECT_EQ(toHex(bytes), "007fa5ff");
    EXPECT_EQ(fromHex("007fa5ff"), bytes);
    EXPECT_EQ(fromHex("007FA5FF"), bytes);
    EXPECT_EQ(fromHex(""), std::vector<uint8_t>{});
    for (const char *bad : {"0", "0g", "abc", "-1", " 0a"})
        EXPECT_EQ(fromHex(bad), std::nullopt) << "'" << bad << "'";
}

TEST(TextTable, RendersAligned)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    const std::string out = t.render();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22222"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtF(2.0, 0), "2");
    EXPECT_EQ(fmtPct(0.0651, 1), "6.5%");
}

}  // namespace
}  // namespace ehdl
