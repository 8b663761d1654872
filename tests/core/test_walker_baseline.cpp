#include "core/walker_baseline.h"

#include <chrono>
#include <cmath>

#include <gtest/gtest.h>

#include "util/angles.h"

namespace ssplane::core {
namespace {

const demand::population_model& shared_population()
{
    static const demand::population_model model;
    return model;
}

design_problem coarse_problem(double multiplier)
{
    demand::demand_options opts;
    opts.lat_cell_deg = 2.0;
    opts.tod_cell_h = 1.0;
    const demand::demand_model model(shared_population(), opts);
    return make_design_problem(model, multiplier);
}

wd_baseline_options fast_options()
{
    wd_baseline_options o;
    o.grid_spacing_deg = 8.0;
    o.n_time_steps = 24;
    return o;
}

TEST(WalkerBaseline, StrictModeUsesCeilPeakShells)
{
    walker_baseline_designer designer(fast_options());
    const auto result = designer.design(coarse_problem(4.0));
    // Peak demand is 4 -> at least 4 shells; the fat latitude profile keeps
    // it exactly at ceil(peak) because shells cover all lower latitudes too.
    EXPECT_EQ(result.shells.size(), 4u);
    EXPECT_TRUE(result.satisfied);
    EXPECT_GT(result.total_satellites, 0);
}

TEST(WalkerBaseline, ShellCountGrowsWithDemand)
{
    walker_baseline_designer designer(fast_options());
    const auto small = designer.design(coarse_problem(2.0));
    const auto large = designer.design(coarse_problem(6.0));
    EXPECT_LT(small.shells.size(), large.shells.size());
    EXPECT_LT(small.total_satellites, large.total_satellites);
}

TEST(WalkerBaseline, ShellInclinationsDecreaseAcrossStack)
{
    walker_baseline_designer designer(fast_options());
    const auto result = designer.design(coarse_problem(6.0));
    ASSERT_GE(result.shells.size(), 2u);
    // Later shells target the residual high-demand (lower) latitudes.
    const double first = result.shells.front().parameters.inclination_rad;
    const double last = result.shells.back().parameters.inclination_rad;
    EXPECT_GE(first, last);
}

TEST(WalkerBaseline, ShellAltitudesAlternateAroundBase)
{
    walker_baseline_designer designer(fast_options());
    const auto result = designer.design(coarse_problem(4.0));
    ASSERT_GE(result.shells.size(), 2u);
    const double base = 560.0e3;
    EXPECT_GT(result.shells[0].altitude_m, base);
    EXPECT_LT(result.shells[1].altitude_m, base);
    for (const auto& shell : result.shells) {
        EXPECT_NEAR(shell.altitude_m, base, 50.0e3);
        EXPECT_DOUBLE_EQ(shell.altitude_m, shell.parameters.altitude_m);
    }
}

TEST(WalkerBaseline, SizingCacheMakesRepeatDesignFast)
{
    walker_baseline_designer designer(fast_options());
    const auto problem = coarse_problem(3.0);
    (void)designer.design(problem); // warm the cache

    const auto start = std::chrono::steady_clock::now();
    const auto result = designer.design(problem);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(result.satisfied);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
              500);
}

TEST(WalkerBaseline, OverlapCreditReducesShells)
{
    wd_baseline_options strict = fast_options();
    wd_baseline_options credit = fast_options();
    credit.credit_overlap_capacity = true;

    walker_baseline_designer strict_designer(strict);
    walker_baseline_designer credit_designer(credit);
    const auto problem = coarse_problem(8.0);
    const auto strict_result = strict_designer.design(problem);
    const auto credit_result = credit_designer.design(problem);
    EXPECT_LE(credit_result.shells.size(), strict_result.shells.size());
    EXPECT_LE(credit_result.total_satellites, strict_result.total_satellites);
    EXPECT_TRUE(credit_result.satisfied);
}

TEST(WalkerBaseline, ReusedDesignerMatchesAFreshOneAtAnotherAltitudeAndElevation)
{
    // The sizing cache must key on every sizing input: a shell sized at
    // 560 km and 30 deg is not the shell another altitude or mask needs.
    const auto base = coarse_problem(2.0);
    walker_baseline_designer reused(fast_options());
    (void)reused.design(base);

    auto high = base;
    high.altitude_m = 1200.0e3;
    auto low_mask = base;
    low_mask.min_elevation_rad = deg2rad(10.0);
    for (const design_problem& problem : {high, low_mask}) {
        walker_baseline_designer fresh(fast_options());
        const auto expected = fresh.design(problem);
        const auto actual = reused.design(problem);
        EXPECT_EQ(actual.total_satellites, expected.total_satellites);
        ASSERT_EQ(actual.shells.size(), expected.shells.size());
        for (std::size_t k = 0; k < actual.shells.size(); ++k) {
            EXPECT_EQ(actual.shells[k].parameters.n_planes,
                      expected.shells[k].parameters.n_planes);
            EXPECT_EQ(actual.shells[k].parameters.sats_per_plane,
                      expected.shells[k].parameters.sats_per_plane);
        }
    }
}

} // namespace
} // namespace ssplane::core
