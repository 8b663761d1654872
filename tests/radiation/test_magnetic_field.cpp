#include "radiation/magnetic_field.h"

#include <cmath>

#include <gtest/gtest.h>

#include "astro/constants.h"
#include "astro/frames.h"
#include "geo/geodesy.h"
#include "util/angles.h"

namespace ssplane::radiation {
namespace {

TEST(Dipole, CenteredFieldMagnitudes)
{
    // Untilted, centered dipole for clean geometry: B = B0 at the magnetic
    // equator surface, 2*B0 at the poles.
    const dipole_model dipole(3.0e-5, 90.0, 0.0, {0.0, 0.0, 0.0});
    const double re = astro::earth_mean_radius_m;
    EXPECT_NEAR(dipole.coordinates_at({re, 0.0, 0.0}).field_t, 3.0e-5, 1e-9);
    EXPECT_NEAR(dipole.coordinates_at({0.0, 0.0, re}).field_t, 6.0e-5, 1e-9);
    // Field falls as 1/r^3.
    EXPECT_NEAR(dipole.coordinates_at({2.0 * re, 0.0, 0.0}).field_t, 3.0e-5 / 8.0,
                1e-9);
}

TEST(Dipole, LShellOfEquatorialPoints)
{
    const dipole_model dipole(3.0e-5, 90.0, 0.0, {0.0, 0.0, 0.0});
    const double re = astro::earth_mean_radius_m;
    // Magnetic-equator point at radius r has L = r/Re.
    for (double factor : {1.0, 1.1, 2.0, 5.0}) {
        const auto mc = dipole.coordinates_at({factor * re, 0.0, 0.0});
        EXPECT_NEAR(mc.l_shell, factor, 1e-9);
        EXPECT_NEAR(mc.magnetic_latitude_rad, 0.0, 1e-12);
        EXPECT_NEAR(mc.b_over_b0(), 1.0, 1e-9);
    }
}

TEST(Dipole, BOverB0GrowsAlongFieldLine)
{
    const dipole_model dipole(3.0e-5, 90.0, 0.0, {0.0, 0.0, 0.0});
    const double re = astro::earth_mean_radius_m;
    // Points on the L = 2 field line: r = L Re cos^2(maglat).
    double prev = 1.0;
    for (double maglat_deg : {10.0, 25.0, 40.0, 55.0}) {
        const double maglat = deg2rad(maglat_deg);
        const double r = 2.0 * re * std::cos(maglat) * std::cos(maglat);
        const vec3 p{r * std::cos(maglat), 0.0, r * std::sin(maglat)};
        const auto mc = dipole.coordinates_at(p);
        EXPECT_NEAR(mc.l_shell, 2.0, 1e-6);
        EXPECT_GT(mc.b_over_b0(), prev);
        prev = mc.b_over_b0();
    }
}

TEST(Dipole, Eccentric2015Parameters)
{
    const dipole_model dipole = dipole_model::eccentric_2015();
    EXPECT_NEAR(dipole.surface_equatorial_field_t(), 2.99e-5, 1e-7);
    EXPECT_NEAR(dipole.center_offset_m().norm(), 570.0e3, 1.0);
    // The axis points at the geomagnetic north pole (80.4 N, 72.6 W): far
    // out along that direction the 570 km offset no longer shows, and the
    // magnetic latitude is 90 degrees.
    const vec3 far_north = geo::to_unit_vector(80.4, -72.6) * 1.0e12;
    EXPECT_NEAR(rad2deg(dipole.coordinates_at(far_north).magnetic_latitude_rad), 90.0,
                1e-3);
}

TEST(Dipole, WeakFieldOverSouthAtlantic)
{
    // The eccentric dipole's weakest surface field at fixed altitude sits
    // over South America / the South Atlantic (the SAA).
    const dipole_model dipole = dipole_model::eccentric_2015();
    double min_b = 1e9;
    double min_lat = 0.0;
    double min_lon = 0.0;
    for (double lat = -60.0; lat <= 60.0; lat += 2.0) {
        for (double lon = -180.0; lon < 180.0; lon += 2.0) {
            const vec3 p = astro::geodetic_to_ecef({lat, lon, 560.0e3});
            const double b = dipole.coordinates_at(p).field_t;
            if (b < min_b) {
                min_b = b;
                min_lat = lat;
                min_lon = lon;
            }
        }
    }
    EXPECT_GT(min_lat, -45.0);
    EXPECT_LT(min_lat, -5.0);
    EXPECT_GT(min_lon, -90.0);
    EXPECT_LT(min_lon, 0.0);
}

TEST(Dipole, CenteredVsEccentricDifferOnlyByOffset)
{
    // The 2015 dipole with its 570 km offset taken out: the same moment and
    // axis about the Earth's centre.
    const dipole_model eccentric = dipole_model::eccentric_2015();
    const dipole_model centered(eccentric.surface_equatorial_field_t(), 80.4, -72.6,
                                {0.0, 0.0, 0.0});
    EXPECT_EQ(centered.center_offset_m().norm(), 0.0);
    // Moving a point by the offset maps one model onto the other.
    for (const auto& g : {astro::geodetic{-25.0, -45.0, 560.0e3},
                          astro::geodetic{60.0, 100.0, 1200.0e3},
                          astro::geodetic{0.0, 0.0, 20000.0e3}}) {
        const vec3 p = astro::geodetic_to_ecef(g);
        const auto c = centered.coordinates_at(p);
        const auto e = eccentric.coordinates_at(p + eccentric.center_offset_m());
        EXPECT_NEAR(e.field_t / c.field_t, 1.0, 1e-12);
        EXPECT_NEAR(e.l_shell / c.l_shell, 1.0, 1e-12);
        EXPECT_NEAR(e.magnetic_latitude_rad, c.magnetic_latitude_rad, 1e-12);
    }
    // Far from Earth the offset matters little.
    const vec3 far{5.0e7, 1.0e7, 2.0e7};
    EXPECT_NEAR(centered.coordinates_at(far).field_t /
                    eccentric.coordinates_at(far).field_t,
                1.0, 0.05);
}

TEST(Dipole, DegenerateCenterReturnsZero)
{
    const dipole_model dipole(3.0e-5, 90.0, 0.0, {0.0, 0.0, 0.0});
    EXPECT_EQ(dipole.coordinates_at({0.0, 0.0, 0.0}).field_t, 0.0);
    EXPECT_EQ(dipole.coordinates_at({0.0, 0.0, 0.0}).l_shell, 0.0);
}

} // namespace
} // namespace ssplane::radiation
