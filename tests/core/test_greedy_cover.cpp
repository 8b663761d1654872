#include "core/greedy_cover.h"

#include <cmath>

#include <gtest/gtest.h>

#include "geo/coverage.h"
#include "util/angles.h"
#include "util/parallel.h"

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

TEST(GreedyCover, SatisfiesAllDemand)
{
    const auto result = greedy_ss_cover(coarse_problem(3.0));
    EXPECT_TRUE(result.satisfied);
    EXPECT_NEAR(result.residual_demand, 0.0, 1e-9);
    EXPECT_GT(result.planes.size(), 0u);
    EXPECT_EQ(result.total_satellites,
              static_cast<int>(result.planes.size()) * result.sats_per_plane);
}

TEST(GreedyCover, SatsPerPlaneFromStreetMinimum)
{
    const auto problem = coarse_problem(1.0);
    const auto cov = geo::coverage_geometry::from(problem.altitude_m,
                                                  problem.min_elevation_rad);
    const int s_min = geo::min_sats_for_street(cov.earth_central_half_angle_rad);
    EXPECT_EQ(resolve_sats_per_plane(problem), s_min);
    EXPECT_EQ(greedy_ss_cover(problem).sats_per_plane, s_min);
}

TEST(GreedyCover, MonotoneInBandwidthMultiplier)
{
    const auto small = greedy_ss_cover(coarse_problem(2.0));
    const auto large = greedy_ss_cover(coarse_problem(8.0));
    EXPECT_TRUE(small.satisfied);
    EXPECT_TRUE(large.satisfied);
    EXPECT_GT(large.planes.size(), small.planes.size());
}

TEST(GreedyCover, RespectsLowerBounds)
{
    const auto problem = coarse_problem(6.0);
    const auto bounds = ss_plane_lower_bounds(problem);
    EXPECT_GE(bounds.per_cell_bound, 6);
    EXPECT_GT(bounds.volume_bound, 0);
    const auto result = greedy_ss_cover(problem);
    EXPECT_GE(static_cast<int>(result.planes.size()), bounds.best());
}

TEST(GreedyCover, EveryPlaneRemovesDemand)
{
    const auto result = greedy_ss_cover(coarse_problem(4.0));
    for (const auto& plane : result.planes) {
        EXPECT_GT(plane.covered_demand, 0.0);
        EXPECT_NEAR(rad2deg(plane.inclination_rad), 97.6, 0.2);
        EXPECT_GE(plane.ltan_h, 0.0);
        EXPECT_LT(plane.ltan_h, 24.0);
        EXPECT_EQ(plane.n_sats, result.sats_per_plane);
    }
}

TEST(GreedyCover, GreedyBeatsWorstFirstRule)
{
    const auto problem = coarse_problem(5.0);
    ss_design_options greedy_opts;
    ss_design_options worst_opts;
    worst_opts.rule = seed_rule::min_demand;
    const auto greedy = greedy_ss_cover(problem, greedy_opts);
    const auto worst = greedy_ss_cover(problem, worst_opts);
    EXPECT_TRUE(greedy.satisfied);
    EXPECT_TRUE(worst.satisfied);
    // Max-demand seeding is close to the worst-first strawman or better;
    // with swath-wide planes the orderings can locally invert.
    EXPECT_LE(static_cast<double>(greedy.planes.size()),
              1.3 * static_cast<double>(worst.planes.size()) + 2.0);
}

TEST(GreedyCover, RandomRuleDeterministicInSeed)
{
    const auto problem = coarse_problem(2.0);
    ss_design_options opts;
    opts.rule = seed_rule::random_cell;
    opts.seed = 11;
    const auto a = greedy_ss_cover(problem, opts);
    const auto b = greedy_ss_cover(problem, opts);
    ASSERT_EQ(a.planes.size(), b.planes.size());
    for (std::size_t i = 0; i < a.planes.size(); ++i)
        EXPECT_DOUBLE_EQ(a.planes[i].ltan_h, b.planes[i].ltan_h);
}

TEST(GreedyCover, MaxPlanesCapReportsUnsatisfied)
{
    ss_design_options opts;
    opts.max_planes = 2;
    const auto result = greedy_ss_cover(coarse_problem(10.0), opts);
    EXPECT_FALSE(result.satisfied);
    EXPECT_GT(result.residual_demand, 0.0);
    EXPECT_EQ(result.planes.size(), 2u);
}

TEST(GreedyCover, SwathIsFootprintHalfAngle)
{
    const auto problem = coarse_problem(1.0);
    const auto result = greedy_ss_cover(problem);
    const auto cov = geo::coverage_geometry::from(problem.altitude_m,
                                                  problem.min_elevation_rad);
    EXPECT_DOUBLE_EQ(result.swath_half_width_rad, cov.earth_central_half_angle_rad);
}

TEST(GreedyCover, DesignIndependentOfThreadCount)
{
    // Candidate scoring fans out to the pool; memoized masks and
    // index-ordered scores must keep the design bit-identical.
    const auto problem = coarse_problem(5.0);
    set_thread_count(1);
    const auto serial = greedy_ss_cover(problem);
    set_thread_count(4);
    const auto parallel = greedy_ss_cover(problem);
    set_thread_count(0);

    ASSERT_EQ(parallel.planes.size(), serial.planes.size());
    for (std::size_t i = 0; i < serial.planes.size(); ++i) {
        EXPECT_DOUBLE_EQ(parallel.planes[i].ltan_h, serial.planes[i].ltan_h);
        EXPECT_DOUBLE_EQ(parallel.planes[i].covered_demand,
                         serial.planes[i].covered_demand);
    }
    EXPECT_EQ(parallel.total_satellites, serial.total_satellites);
    EXPECT_DOUBLE_EQ(parallel.residual_demand, serial.residual_demand);
}

} // namespace
} // namespace ssplane::core
