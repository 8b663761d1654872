#include "astro/frames.h"

#include <cmath>

#include "astro/constants.h"

namespace ssplane::astro {

namespace {
constexpr double wgs84_a = earth_equatorial_radius_m;
constexpr double wgs84_f = earth_flattening;
constexpr double wgs84_e2 = wgs84_f * (2.0 - wgs84_f); // first eccentricity squared
} // namespace

vec3 geodetic_to_ecef(const geodetic& g) noexcept
{
    const double lat = deg2rad(g.latitude_deg);
    const double lon = deg2rad(g.longitude_deg);
    const double sin_lat = std::sin(lat);
    const double cos_lat = std::cos(lat);
    // Prime-vertical radius of curvature.
    const double n = wgs84_a / std::sqrt(1.0 - wgs84_e2 * sin_lat * sin_lat);
    return {(n + g.altitude_m) * cos_lat * std::cos(lon),
            (n + g.altitude_m) * cos_lat * std::sin(lon),
            (n * (1.0 - wgs84_e2) + g.altitude_m) * sin_lat};
}

geodetic ecef_to_geodetic(const vec3& r) noexcept
{
    const double lon = std::atan2(r.y, r.x);
    const double p = std::hypot(r.x, r.y);

    // Bowring-style fixed-point iteration on geodetic latitude.
    double lat = std::atan2(r.z, p * (1.0 - wgs84_e2));
    double alt = 0.0;
    for (int i = 0; i < 6; ++i) {
        const double sin_lat = std::sin(lat);
        const double n = wgs84_a / std::sqrt(1.0 - wgs84_e2 * sin_lat * sin_lat);
        alt = (std::abs(std::cos(lat)) > 1e-9)
                  ? p / std::cos(lat) - n
                  : std::abs(r.z) / std::abs(sin_lat) - n * (1.0 - wgs84_e2);
        lat = std::atan2(r.z, p * (1.0 - wgs84_e2 * n / (n + alt)));
    }
    return {rad2deg(lat), rad2deg(lon), alt};
}

vec3 eci_to_ecef(const vec3& r_eci, const instant& t) noexcept
{
    return eci_to_ecef_at_gmst(r_eci, gmst_rad(t));
}

vec3 eci_to_ecef_at_gmst(const vec3& r_eci, double gmst) noexcept
{
    return rotate_z(r_eci, -gmst);
}

double geocentric_latitude_rad(const vec3& r) noexcept
{
    const double p = std::hypot(r.x, r.y);
    return std::atan2(r.z, p);
}

sun_relative eci_to_sun_relative(const vec3& r_eci, const instant& t) noexcept
{
    const double ra = std::atan2(r_eci.y, r_eci.x);
    sun_relative s;
    s.latitude_deg = rad2deg(geocentric_latitude_rad(r_eci));
    s.local_solar_time_h = solar_time_of_right_ascension_hours(t, ra);
    return s;
}

double elevation_angle_rad(const vec3& site_ecef, const vec3& sat_ecef) noexcept
{
    const vec3 to_sat = sat_ecef - site_ecef;
    const vec3 up = site_ecef.normalized(); // geocentric up; adequate for coverage tests
    const double range = to_sat.norm();
    if (range == 0.0) return pi / 2.0;
    return safe_asin(up.dot(to_sat) / range);
}

} // namespace ssplane::astro
