#include "util/rng.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/stats.h"

namespace ssplane {
namespace {

/// Sample standard deviation (n - 1 denominator).
double stddev(const std::vector<double>& xs)
{
    const double m = mean(xs);
    double ss = 0.0;
    for (const double x : xs) ss += (x - m) * (x - m);
    return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

TEST(Rng, DeterministicForSameSeed)
{
    rng a(12345);
    rng b(12345);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    rng a(1);
    rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

class RngSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedTest, UniformInUnitInterval)
{
    rng r(GetParam());
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST_P(RngSeedTest, UniformRangeRespectsBounds)
{
    rng r(GetParam());
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-3.0, 7.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 7.0);
    }
}

TEST_P(RngSeedTest, UniformIntInclusiveBounds)
{
    rng r(GetParam());
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniform_int(0, 9);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 9);
        saw_lo |= (v == 0);
        saw_hi |= (v == 9);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST_P(RngSeedTest, NormalMoments)
{
    rng r(GetParam());
    std::vector<double> xs(20000);
    for (auto& x : xs) x = r.normal();
    EXPECT_NEAR(mean(xs), 0.0, 0.05);
    EXPECT_NEAR(stddev(xs), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest, ::testing::Values(1u, 42u, 1234567u));

TEST(Rng, LognormalIsPositive)
{
    rng r(7);
    for (int i = 0; i < 1000; ++i) EXPECT_GT(r.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    rng r(9);
    std::vector<double> xs(20000);
    for (auto& x : xs) x = r.exponential(2.0);
    EXPECT_NEAR(mean(xs), 0.5, 0.02);
}

TEST(Rng, ParetoRespectsMinimum)
{
    rng r(11);
    for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, BernoulliFrequency)
{
    rng r(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (r.bernoulli(0.3)) ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkedStreamsAreIndependentAndStable)
{
    rng parent1(99);
    rng parent2(99);
    rng childa = parent1.fork(5);
    rng childb = parent2.fork(5);
    // Same parent state + same stream index -> identical child.
    for (int i = 0; i < 32; ++i) EXPECT_EQ(childa.next_u64(), childb.next_u64());

    rng parent3(99);
    rng child5 = parent3.fork(5);
    rng child6 = parent3.fork(6);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (child5.next_u64() == child6.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsDeterministicPerPurposeAndStep)
{
    rng a = rng::split(42, 1, 7);
    rng b = rng::split(42, 1, 7);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SplitStreamsDivergeAcrossPurposeStepAndSeed)
{
    // Every coordinate splits the stream: a shared prefix would mean two
    // scenario processes (or two steps of one process) see correlated
    // draws.
    const auto differs = [](rng x, rng y) {
        int same = 0;
        for (int i = 0; i < 64; ++i)
            if (x.next_u64() == y.next_u64()) ++same;
        return same < 2;
    };
    EXPECT_TRUE(differs(rng::split(42, 1, 7), rng::split(42, 2, 7)));
    EXPECT_TRUE(differs(rng::split(42, 1, 7), rng::split(42, 1, 8)));
    EXPECT_TRUE(differs(rng::split(42, 1, 7), rng::split(43, 1, 7)));
    // And the split streams are disjoint from the legacy direct stream the
    // static `sample_failures` draws still use.
    EXPECT_TRUE(differs(rng::split(42, 1, 0), rng(42)));
}

} // namespace
} // namespace ssplane
