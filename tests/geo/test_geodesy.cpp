#include "geo/geodesy.h"

#include <cmath>

#include <gtest/gtest.h>

#include "astro/constants.h"
#include "util/angles.h"

namespace ssplane::geo {
namespace {

TEST(Geodesy, UnitVectorRoundTrip)
{
    for (double lat = -85.0; lat <= 85.0; lat += 17.0) {
        for (double lon = -170.0; lon <= 170.0; lon += 35.0) {
            const vec3 u = to_unit_vector(lat, lon);
            EXPECT_NEAR(u.norm(), 1.0, 1e-12);
            EXPECT_NEAR(rad2deg(std::asin(u.z)), lat, 1e-9);
            EXPECT_NEAR(rad2deg(std::atan2(u.y, u.x)), lon, 1e-9);
        }
    }
}

TEST(Geodesy, CentralAngleKnownValues)
{
    // Pole to equator is 90 degrees.
    EXPECT_NEAR(rad2deg(central_angle_rad(90.0, 0.0, 0.0, 0.0)), 90.0, 1e-9);
    // Quarter turn along the equator.
    EXPECT_NEAR(rad2deg(central_angle_rad(0.0, 0.0, 0.0, 90.0)), 90.0, 1e-9);
    // Antipodal points.
    EXPECT_NEAR(rad2deg(central_angle_rad(10.0, 20.0, -10.0, -160.0)), 180.0, 1e-4);
    // Coincident points.
    EXPECT_NEAR(central_angle_rad(45.0, 45.0, 45.0, 45.0), 0.0, 1e-12);
}

TEST(Geodesy, CentralAngleMatchesVectorForm)
{
    const double angle1 = central_angle_rad(40.7, -74.0, 51.5, -0.1);
    const double angle2 =
        angle_between(to_unit_vector(40.7, -74.0), to_unit_vector(51.5, -0.1));
    EXPECT_NEAR(angle1, angle2, 1e-9);
}

TEST(Geodesy, SurfaceDistanceNewYorkLondon)
{
    // Great-circle NY -> London is about 5,570 km.
    EXPECT_NEAR(surface_distance_m(40.71, -74.01, 51.51, -0.13) / 1000.0, 5570.0, 60.0);
}

class SymmetryTest
    : public ::testing::TestWithParam<std::tuple<double, double, double, double>> {};

TEST_P(SymmetryTest, CentralAngleIsSymmetric)
{
    const auto [lat1, lon1, lat2, lon2] = GetParam();
    EXPECT_NEAR(central_angle_rad(lat1, lon1, lat2, lon2),
                central_angle_rad(lat2, lon2, lat1, lon1), 1e-12);
}

TEST_P(SymmetryTest, TriangleInequalityThroughOrigin)
{
    const auto [lat1, lon1, lat2, lon2] = GetParam();
    const double via = central_angle_rad(lat1, lon1, 0.0, 0.0) +
                       central_angle_rad(0.0, 0.0, lat2, lon2);
    EXPECT_LE(central_angle_rad(lat1, lon1, lat2, lon2), via + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SweepPairs, SymmetryTest,
    ::testing::Values(std::make_tuple(10.0, 20.0, 30.0, 40.0),
                      std::make_tuple(-60.0, 100.0, 60.0, -100.0),
                      std::make_tuple(0.0, 179.0, 0.0, -179.0),
                      std::make_tuple(89.0, 0.0, -89.0, 0.0),
                      std::make_tuple(23.8, 90.4, 35.7, 139.7)));

TEST(Geodesy, CapAreaFraction)
{
    EXPECT_NEAR(cap_area_fraction(0.0), 0.0, 1e-12);
    EXPECT_NEAR(cap_area_fraction(pi), 1.0, 1e-12);        // whole sphere
    EXPECT_NEAR(cap_area_fraction(pi / 2.0), 0.5, 1e-12);  // hemisphere
    // Monotone increasing.
    double prev = 0.0;
    for (double a = 0.1; a < pi; a += 0.1) {
        const double f = cap_area_fraction(a);
        EXPECT_GT(f, prev);
        prev = f;
    }
}

} // namespace
} // namespace ssplane::geo
