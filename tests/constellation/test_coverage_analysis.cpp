#include "constellation/coverage_analysis.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/expects.h"

#include "geo/coverage.h"
#include "util/angles.h"

namespace ssplane::constellation {
namespace {

coverage_check_options fast_options()
{
    coverage_check_options o;
    o.min_elevation_rad = deg2rad(30.0);
    o.max_latitude_deg = 60.0;
    o.grid_spacing_deg = 8.0;
    o.n_time_steps = 24;
    return o;
}

TEST(CoveragePoints, QuasiEqualAreaSampling)
{
    const auto points = coverage_test_points(60.0, 6.0);
    EXPECT_GT(points.size(), 100u);
    for (const auto& p : points) {
        EXPECT_NEAR(p.norm(), 1.0, 1e-12);
        EXPECT_LE(std::abs(rad2deg(std::asin(p.z))), 60.0 + 1e-9);
    }
    // Finer grids produce more points, roughly quadratically.
    const auto fine = coverage_test_points(60.0, 3.0);
    EXPECT_GT(fine.size(), 3u * points.size());
}

TEST(CoveragePoints, Validation)
{
    EXPECT_THROW(coverage_test_points(60.0, 0.0), contract_violation);
    EXPECT_THROW(coverage_test_points(0.0, 5.0), contract_violation);
    EXPECT_THROW(coverage_test_points(91.0, 5.0), contract_violation);
}

TEST(Coverage, SingleSatelliteCannotCoverBand)
{
    walker_parameters p;
    p.altitude_m = 560.0e3;
    p.inclination_rad = deg2rad(65.0);
    p.n_planes = 1;
    p.sats_per_plane = 1;
    const auto sats = make_walker_delta(p);
    const auto opts = fast_options();
    EXPECT_FALSE(covers_continuously(sats, astro::instant::j2000(), opts));
    // One satellite sees a sample at most once, so the mean count is the
    // covered fraction.
    const double frac = mean_simultaneous_coverage(sats, astro::instant::j2000(), opts);
    EXPECT_GT(frac, 0.0);
    EXPECT_LT(frac, 0.05);
}

TEST(Coverage, MeanCoverageGrowsWithConstellationSize)
{
    const auto opts = fast_options();
    double prev = 0.0;
    for (int planes : {2, 6, 12, 20}) {
        walker_parameters p;
        p.altitude_m = 560.0e3;
        p.inclination_rad = deg2rad(65.0);
        p.n_planes = planes;
        p.sats_per_plane = 12;
        p.phasing_f = 1;
        const double mean_count = mean_simultaneous_coverage(
            make_walker_delta(p), astro::instant::j2000(), opts);
        EXPECT_GT(mean_count, prev);
        prev = mean_count;
    }
}

TEST(Coverage, DenseWalkerCoversContinuously)
{
    // A deliberately oversized shell at high altitude covers easily.
    walker_parameters p;
    p.altitude_m = 1400.0e3;
    p.inclination_rad = deg2rad(70.0);
    p.n_planes = 12;
    p.sats_per_plane = 14;
    p.phasing_f = 1;
    const auto sats = make_walker_delta(p);
    coverage_check_options opts = fast_options();
    EXPECT_TRUE(covers_continuously(sats, astro::instant::j2000(), opts));
    EXPECT_GE(mean_simultaneous_coverage(sats, astro::instant::j2000(), opts), 1.0);
}

TEST(Coverage, SizerFindsMinimalShellAtHighAltitude)
{
    // Keep it cheap: 1400 km, 50-degree band.
    coverage_check_options opts;
    opts.min_elevation_rad = deg2rad(30.0);
    opts.max_latitude_deg = 50.0;
    opts.grid_spacing_deg = 6.0;
    opts.n_time_steps = 32;
    const auto result = size_walker_for_coverage(1400.0e3, deg2rad(50.0), opts);
    ASSERT_TRUE(result.found);
    EXPECT_GT(result.total, 20);
    EXPECT_LT(result.total, 200);
    // The found configuration indeed covers.
    const auto sats = make_walker_delta(result.parameters);
    EXPECT_TRUE(covers_continuously(sats, astro::instant::j2000(), opts));
}

TEST(Coverage, SizerRespectsStreetMinimum)
{
    coverage_check_options opts;
    opts.min_elevation_rad = deg2rad(30.0);
    opts.max_latitude_deg = 50.0;
    opts.grid_spacing_deg = 8.0;
    opts.n_time_steps = 24;
    const auto result = size_walker_for_coverage(1400.0e3, deg2rad(50.0), opts);
    ASSERT_TRUE(result.found);
    const auto cov = geo::coverage_geometry::from(1400.0e3, opts.min_elevation_rad);
    EXPECT_GE(result.parameters.sats_per_plane,
              geo::min_sats_for_street(cov.earth_central_half_angle_rad));
}

TEST(Coverage, MinSimultaneousZeroWhenGaps)
{
    // Two planes of four: the mean count over (sample, step) pairs is below
    // 1, so some sample sees no satellite at some step.
    walker_parameters p;
    p.altitude_m = 560.0e3;
    p.inclination_rad = deg2rad(65.0);
    p.n_planes = 2;
    p.sats_per_plane = 4;
    const auto sats = make_walker_delta(p);
    const auto opts = fast_options();
    EXPECT_LT(mean_simultaneous_coverage(sats, astro::instant::j2000(), opts), 1.0);
    EXPECT_FALSE(covers_continuously(sats, astro::instant::j2000(), opts));
}

TEST(Coverage, EmptyConstellationRejected)
{
    const std::vector<satellite> empty;
    EXPECT_THROW(covers_continuously(empty, astro::instant::j2000(), fast_options()),
                 contract_violation);
}

} // namespace
} // namespace ssplane::constellation
