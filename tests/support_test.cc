/**
 * @file
 * Unit and property tests for the support layer: disjoint sets,
 * deterministic RNG, statistics helpers, the table printer, error
 * reporting and the integer parser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "support/disjoint_set.h"
#include "support/error.h"
#include "support/parse_int.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

namespace {

using namespace ndp;

// ---------------------------------------------------------- DisjointSet

TEST(DisjointSetTest, StartsAsSingletons)
{
    DisjointSet ds(5);
    EXPECT_EQ(ds.size(), 5u);
    EXPECT_EQ(ds.setCount(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(ds.find(i), i);
}

TEST(DisjointSetTest, UniteMergesAndReportsChange)
{
    DisjointSet ds(4);
    EXPECT_TRUE(ds.unite(0, 1));
    EXPECT_FALSE(ds.unite(0, 1)); // already merged
    EXPECT_TRUE(ds.connected(0, 1));
    EXPECT_FALSE(ds.connected(0, 2));
    EXPECT_EQ(ds.setCount(), 3u);
}

TEST(DisjointSetTest, TransitiveConnectivity)
{
    DisjointSet ds(6);
    ds.unite(0, 1);
    ds.unite(1, 2);
    ds.unite(3, 4);
    EXPECT_TRUE(ds.connected(0, 2));
    EXPECT_TRUE(ds.connected(3, 4));
    EXPECT_FALSE(ds.connected(2, 3));
    ds.unite(2, 3);
    EXPECT_TRUE(ds.connected(0, 4));
    EXPECT_EQ(ds.setCount(), 2u);
}

TEST(DisjointSetTest, FindOutOfRangePanics)
{
    DisjointSet ds(3);
    EXPECT_THROW(ds.find(3), PanicError);
}

/** Property: after uniting a random spanning set, everything connects. */
class DisjointSetPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(DisjointSetPropertyTest, RandomUnionsMatchReferencePartition)
{
    const int seed = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed));
    const std::size_t n = 32;
    DisjointSet ds(n);
    // Reference partition via label propagation.
    std::vector<std::size_t> label(n);
    std::iota(label.begin(), label.end(), 0);
    auto relabel = [&](std::size_t from, std::size_t to) {
        for (auto &l : label) {
            if (l == from)
                l = to;
        }
    };
    for (int k = 0; k < 40; ++k) {
        const auto a = static_cast<std::size_t>(rng.nextBelow(n));
        const auto b = static_cast<std::size_t>(rng.nextBelow(n));
        if (a == b)
            continue;
        const bool merged = ds.unite(a, b);
        EXPECT_EQ(merged, label[a] != label[b]);
        relabel(label[a], label[b]);
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(ds.connected(i, j), label[i] == label[j])
                << i << " vs " << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjointSetPropertyTest,
                         ::testing::Range(1, 9));

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(RngTest, NextInRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 4000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 4000.0, 0.5, 0.05);
}

TEST(RngTest, BernoulliRoughlyCalibrated)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.nextBool(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

// ---------------------------------------------------------------- stats

TEST(StatsTest, AccumulatorBasics)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    acc.add(2.0);
    acc.add(4.0);
    acc.add(9.0);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.sum(), 15.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
}

TEST(StatsTest, AccumulatorMerge)
{
    Accumulator a, b;
    a.add(1.0);
    a.add(3.0);
    b.add(10.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.max(), 10.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);

    Accumulator empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 3u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 3u);
}

TEST(StatsTest, AccumulatorReset)
{
    Accumulator acc;
    acc.add(5.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.sum(), 0.0);
}

TEST(StatsTest, GeometricMean)
{
    const std::vector<double> values = {2.0, 8.0};
    EXPECT_NEAR(geometricMean(values), 4.0, 1e-9);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
    // Values below the floor are clamped, not rejected.
    const std::vector<double> with_zero = {0.0, 4.0};
    EXPECT_GT(geometricMean(with_zero, 1.0), 0.0);
}

TEST(StatsTest, ArithmeticMean)
{
    const std::vector<double> values = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(arithmeticMean(values), 2.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

TEST(StatsTest, PercentReduction)
{
    EXPECT_DOUBLE_EQ(percentReduction(100.0, 80.0), 20.0);
    EXPECT_DOUBLE_EQ(percentReduction(100.0, 120.0), -20.0);
    EXPECT_DOUBLE_EQ(percentReduction(0.0, 10.0), 0.0);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(12LL);
    t.row().cell("b").cell(3.5, 1);
    const std::string out = t.toString();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("3.5"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableTest, RejectsTooManyCells)
{
    Table t({"only"});
    t.row().cell("x");
    EXPECT_THROW(t.cell("y"), FatalError);
}

TEST(TableTest, RejectsCellBeforeRow)
{
    Table t({"a"});
    EXPECT_THROW(t.cell("x"), FatalError);
}

TEST(TableTest, NumericFormatting)
{
    Table t({"v"});
    t.row().cell(3.14159, 3);
    EXPECT_NE(t.toString().find("3.142"), std::string::npos);
}

// ---------------------------------------------------------------- error

TEST(ErrorTest, CheckMacroThrowsPanic)
{
    EXPECT_THROW(NDP_CHECK(false, "boom"), PanicError);
    EXPECT_NO_THROW(NDP_CHECK(true, "fine"));
}

TEST(ErrorTest, RequireMacroThrowsFatal)
{
    EXPECT_THROW(NDP_REQUIRE(false, "bad input"), FatalError);
    EXPECT_NO_THROW(NDP_REQUIRE(true, "ok"));
}

TEST(ErrorTest, MessagesPropagate)
{
    try {
        fatal("specific message");
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("specific message"),
                  std::string::npos);
    }
}

// ------------------------------------------------------------ parseInt

TEST(ParseIntTest, ReadsWholeIntegersOfAtLeastMin)
{
    EXPECT_EQ(parseInt<int>("12", 1), std::optional<int>(12));
    EXPECT_EQ(parseInt<int>("1", 1), std::optional<int>(1));
    EXPECT_EQ(parseInt<std::int64_t>("-7", -10),
              std::optional<std::int64_t>(-7));
    // A digit prefix, a non-number, an empty or padded value, one
    // below the minimum and one past the type's range are all refused.
    for (const char *bad : {"12abc", "abc", "", " 12", "12 ", "+12", "0",
                            "99999999999"})
        EXPECT_EQ(parseInt<int>(bad, 1), std::nullopt) << "'" << bad << "'";
    EXPECT_EQ(parseInt<std::int64_t>(
                  "9223372036854775808",
                  std::numeric_limits<std::int64_t>::min()),
              std::nullopt);
}

} // namespace
