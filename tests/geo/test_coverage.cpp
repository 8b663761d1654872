#include "geo/coverage.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::geo {
namespace {

TEST(Coverage, KnownGeometryAt560km30deg)
{
    const auto g = coverage_geometry::from(560.0e3, deg2rad(30.0));
    EXPECT_NEAR(rad2deg(g.earth_central_half_angle_rad), 7.25, 0.05);
    // Angles in the Earth-center/satellite/edge triangle sum to 90 degrees.
    EXPECT_NEAR(g.earth_central_half_angle_rad + g.nadir_half_angle_rad +
                    g.min_elevation_rad, pi / 2.0, 1e-12);
}

TEST(Coverage, ZeroElevationGivesHorizonLimit)
{
    // With epsilon = 0 the footprint reaches the geometric horizon:
    // lambda = acos(Re/(Re+h)).
    const double h = 1000.0e3;
    const auto g = coverage_geometry::from(h, 0.0);
    const double re = 6371008.8;
    EXPECT_NEAR(g.earth_central_half_angle_rad, std::acos(re / (re + h)), 1e-9);
}

class AltitudeMonotonic : public ::testing::TestWithParam<double> {};

TEST_P(AltitudeMonotonic, FootprintGrowsWithAltitude)
{
    const double eps = deg2rad(GetParam());
    double prev = 0.0;
    for (double h = 300.0e3; h <= 2000.0e3; h += 100.0e3) {
        const auto g = coverage_geometry::from(h, eps);
        EXPECT_GT(g.earth_central_half_angle_rad, prev);
        prev = g.earth_central_half_angle_rad;
    }
}

TEST_P(AltitudeMonotonic, FootprintShrinksWithElevation)
{
    const double eps0 = deg2rad(GetParam());
    const auto big = coverage_geometry::from(560.0e3, eps0);
    const auto small = coverage_geometry::from(560.0e3, eps0 + deg2rad(10.0));
    EXPECT_GT(big.earth_central_half_angle_rad, small.earth_central_half_angle_rad);
}

INSTANTIATE_TEST_SUITE_P(Elevations, AltitudeMonotonic,
                         ::testing::Values(5.0, 15.0, 25.0, 30.0, 40.0, 55.0));

TEST(Coverage, SlantRangeBounds)
{
    const auto g = coverage_geometry::from(560.0e3, deg2rad(30.0));
    // Slant range to the footprint edge exceeds the altitude but is well
    // below the horizon distance.
    EXPECT_GT(g.slant_range_m, 560.0e3);
    EXPECT_LT(g.slant_range_m, 2700.0e3);
}

TEST(Coverage, FootprintAreaFractionConsistent)
{
    const auto g = coverage_geometry::from(560.0e3, deg2rad(30.0));
    EXPECT_NEAR(g.footprint_area_fraction,
                (1.0 - std::cos(g.earth_central_half_angle_rad)) / 2.0, 1e-12);
}

TEST(Coverage, InputValidation)
{
    EXPECT_THROW(coverage_geometry::from(0.0, 0.1), contract_violation);
    EXPECT_THROW(coverage_geometry::from(500.0e3, pi / 2.0), contract_violation);
    EXPECT_THROW(coverage_geometry::from(500.0e3, -0.1), contract_violation);
}

TEST(Coverage, StreetWidthBehaviour)
{
    const double lambda = deg2rad(8.0);
    // Too few satellites: no street.
    EXPECT_EQ(street_half_width_rad(lambda, 2), 0.0);
    const int s_min = min_sats_for_street(lambda);
    EXPECT_GE(s_min, static_cast<int>(std::ceil(pi / lambda)));
    // Street width grows with satellite count and approaches lambda.
    double prev = street_half_width_rad(lambda, s_min);
    EXPECT_GT(prev, 0.0);
    for (int s = s_min + 1; s <= s_min + 20; ++s) {
        const double c = street_half_width_rad(lambda, s);
        EXPECT_GT(c, prev);
        EXPECT_LT(c, lambda);
        prev = c;
    }
}

TEST(Coverage, MinSatsDecreasesWithFootprint)
{
    EXPECT_GE(min_sats_for_street(deg2rad(5.0)), min_sats_for_street(deg2rad(10.0)));
    EXPECT_EQ(min_sats_for_street(0.0), 0);
}

} // namespace
} // namespace ssplane::geo
