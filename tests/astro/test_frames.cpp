#include "astro/frames.h"

#include <cmath>

#include <gtest/gtest.h>

#include "astro/constants.h"

namespace ssplane::astro {
namespace {

TEST(Frames, EquatorAndPoleEcef)
{
    const vec3 eq = geodetic_to_ecef({0.0, 0.0, 0.0});
    EXPECT_NEAR(eq.x, earth_equatorial_radius_m, 1e-6);
    EXPECT_NEAR(eq.y, 0.0, 1e-6);
    EXPECT_NEAR(eq.z, 0.0, 1e-6);

    const vec3 np = geodetic_to_ecef({90.0, 0.0, 0.0});
    EXPECT_NEAR(np.z, earth_polar_radius_m, 1e-6);
    EXPECT_NEAR(std::hypot(np.x, np.y), 0.0, 1e-6);
}

struct latlon {
    double lat;
    double lon;
    double alt;
};

class GeodeticRoundTrip : public ::testing::TestWithParam<latlon> {};

TEST_P(GeodeticRoundTrip, EcefRoundTripsToGeodetic)
{
    const auto p = GetParam();
    const geodetic g{p.lat, p.lon, p.alt};
    const geodetic back = ecef_to_geodetic(geodetic_to_ecef(g));
    EXPECT_NEAR(back.latitude_deg, p.lat, 1e-7);
    if (std::abs(p.lat) < 89.9) {
        EXPECT_NEAR(back.longitude_deg, p.lon, 1e-7);
    }
    EXPECT_NEAR(back.altitude_m, p.alt, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    SweepSurface, GeodeticRoundTrip,
    ::testing::Values(latlon{0.0, 0.0, 0.0}, latlon{45.0, 45.0, 0.0},
                      latlon{-33.9, 18.4, 100.0}, latlon{61.2, -149.9, 500.0},
                      latlon{-80.0, 170.0, 2000.0}, latlon{23.8, 90.4, 10.0},
                      latlon{89.0, 10.0, 0.0}, latlon{-89.0, -10.0, 0.0},
                      latlon{10.0, 179.9, 0.0}, latlon{10.0, -179.9, 0.0},
                      latlon{35.7, 139.7, 560.0e3}, latlon{-55.0, -70.0, 1200.0e3}));

TEST(Frames, EciEcefRoundTrip)
{
    const instant t = instant::from_calendar(2017, 5, 4, 3, 2, 1.0);
    const vec3 r{7.0e6, -1.0e6, 2.0e6};
    // Rotating back by +GMST restores the ECI position.
    EXPECT_NEAR((rotate_z(eci_to_ecef(r, t), gmst_rad(t)) - r).norm(), 0.0, 1e-6);
    // Rotation preserves length and z.
    EXPECT_NEAR(eci_to_ecef(r, t).norm(), r.norm(), 1e-6);
    EXPECT_NEAR(eci_to_ecef(r, t).z, r.z, 1e-9);
}

TEST(Frames, GeocentricLatitude)
{
    EXPECT_NEAR(geocentric_latitude_rad({1.0, 0.0, 0.0}), 0.0, 1e-12);
    EXPECT_NEAR(geocentric_latitude_rad({0.0, 0.0, 5.0}), pi / 2.0, 1e-12);
    EXPECT_NEAR(rad2deg(geocentric_latitude_rad({1.0, 0.0, 1.0})), 45.0, 1e-9);
}

TEST(Frames, ElevationAngleAtZenithAndHorizon)
{
    const geodetic site{10.0, 20.0, 0.0};
    const vec3 site_ecef = geodetic_to_ecef(site);
    // Satellite directly overhead (same direction, higher altitude).
    const vec3 overhead = site_ecef * ((site_ecef.norm() + 500.0e3) / site_ecef.norm());
    EXPECT_NEAR(rad2deg(elevation_angle_rad(site_ecef, overhead)), 90.0, 0.2);

    // Satellite on the local horizontal plane has elevation ~0.
    const vec3 up = site_ecef.normalized();
    const vec3 east = vec3{-up.y, up.x, 0.0}.normalized(); // z x up
    const vec3 horizontal = site_ecef + east * 1000.0e3;
    EXPECT_NEAR(rad2deg(elevation_angle_rad(site_ecef, horizontal)), 0.0, 0.5);
}

TEST(Frames, SunRelativeOfSubsolarPointIsNoon)
{
    const instant t = instant::from_calendar(2015, 4, 10, 9);
    // A point on the meridian facing the mean sun reads ~12 h.
    const double ra_sun = mean_sun_right_ascension_rad(t);
    const vec3 dir{std::cos(ra_sun), std::sin(ra_sun), 0.0};
    const auto sr = eci_to_sun_relative(dir * 7.0e6, t);
    EXPECT_NEAR(sr.local_solar_time_h, 12.0, 1e-9);
    EXPECT_NEAR(sr.latitude_deg, 0.0, 1e-9);
}

TEST(Frames, SunRelativeConsistencyBetweenPaths)
{
    // The sun-relative coordinates of a ground point's ECI position are its
    // latitude and its mean solar time at its longitude.
    const instant t = instant::from_calendar(2016, 8, 20, 14);
    const geodetic g{37.0, -122.0, 0.0};
    const vec3 r_eci = rotate_z(geodetic_to_ecef(g), gmst_rad(t));
    const auto via_eci = eci_to_sun_relative(r_eci, t);
    EXPECT_NEAR(hour_difference(mean_solar_time_hours(t, g.longitude_deg),
                                via_eci.local_solar_time_h), 0.0, 1e-6);
    // Geodetic vs geocentric latitude differ by up to ~0.2 degrees.
    EXPECT_NEAR(g.latitude_deg, via_eci.latitude_deg, 0.25);
}

} // namespace
} // namespace ssplane::astro
