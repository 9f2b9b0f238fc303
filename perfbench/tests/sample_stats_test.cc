#include "runner/sample_stats.h"

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(TailPercentile, HundredSamplesGiveP90)
{
    const TailPercentile t = tailPercentile(oneTo(100));
    EXPECT_DOUBLE_EQ(t.value, 90.0);
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.samples, 100u);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, AlwaysLeavesTenSamplesBeyond)
{
    std::mt19937 rng(3);
    for (int n = 11; n <= 200; ++n) {
        std::vector<double> v = oneTo(n);
        std::shuffle(v.begin(), v.end(), rng);
        const TailPercentile t = tailPercentile(v);
        const auto beyond = std::count_if(
            v.begin(), v.end(), [&](double x) { return x > t.value; });
        EXPECT_EQ(beyond, 10) << "n=" << n;
        EXPECT_EQ(t.beyond, 10u);
        // The highest such percentile: one rank higher leaves only nine.
        EXPECT_DOUBLE_EQ(t.percentile, 100.0 * (n - 10) / n);
    }
}

TEST(TailPercentile, ElevenSamplesGiveTheMinimum)
{
    const TailPercentile t = tailPercentile(oneTo(11));
    EXPECT_DOUBLE_EQ(t.value, 1.0);
    EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);
}

TEST(TailPercentile, TooFewSamplesFallBackToTheMaximum)
{
    const TailPercentile t = tailPercentile(oneTo(10));
    EXPECT_DOUBLE_EQ(t.value, 10.0);
    EXPECT_DOUBLE_EQ(t.percentile, 100.0);
    EXPECT_EQ(t.beyond, 0u);
    EXPECT_EQ(tailPercentile({}).samples, 0u);
}

TEST(TailPercentile, ThresholdIsAParameter)
{
    const TailPercentile t = tailPercentile(oneTo(24), 4);
    EXPECT_DOUBLE_EQ(t.value, 20.0);
    EXPECT_EQ(t.beyond, 4u);
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

} // namespace
} // namespace perfbench
