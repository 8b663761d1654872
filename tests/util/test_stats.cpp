#include "util/stats.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "util/expects.h"

namespace ssplane {
namespace {

TEST(Stats, Mean)
{
    const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_NEAR(mean(xs), 5.0, 1e-12);
}

TEST(Stats, EmptySamplesAreZero)
{
    const std::vector<double> empty;
    EXPECT_EQ(mean(empty), 0.0);
    EXPECT_EQ(median(empty), 0.0);
}

TEST(Stats, PercentileInterpolates)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_NEAR(percentile(xs, 0.0), 1.0, 1e-12);
    EXPECT_NEAR(percentile(xs, 100.0), 4.0, 1e-12);
    EXPECT_NEAR(percentile(xs, 50.0), 2.5, 1e-12);
    EXPECT_NEAR(percentile(xs, 25.0), 1.75, 1e-12);
}

TEST(Stats, PercentileRejectsBadP)
{
    const std::vector<double> xs{1.0};
    EXPECT_THROW(percentile(xs, -1.0), contract_violation);
    EXPECT_THROW(percentile(xs, 101.0), contract_violation);
}

TEST(Stats, MedianUnsortedInput)
{
    const std::vector<double> xs{9.0, 1.0, 5.0};
    EXPECT_NEAR(median(xs), 5.0, 1e-12);
}

TEST(Stats, PercentileSortedMatchesPercentile)
{
    const std::vector<double> unsorted = {9.0, 1.0, 5.0, 3.0, 7.0, 2.0};
    std::vector<double> sorted = unsorted;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 95.0, 100.0})
        EXPECT_DOUBLE_EQ(percentile_sorted(sorted, p), percentile(unsorted, p));
}

TEST(Stats, PercentileSortedEdgeCases)
{
    EXPECT_EQ(percentile_sorted({}, 50.0), 0.0);
    const std::vector<double> one = {4.0};
    EXPECT_EQ(percentile_sorted(one, 95.0), 4.0);
    const std::vector<double> two = {1.0, 3.0};
    EXPECT_DOUBLE_EQ(percentile_sorted(two, 50.0), 2.0);
    EXPECT_THROW(percentile_sorted(two, -1.0), contract_violation);
    EXPECT_THROW(percentile_sorted(two, 101.0), contract_violation);
}

} // namespace
} // namespace ssplane
