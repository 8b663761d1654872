// Reference frames and coordinate conversions.
//
// Frames used in the library:
//   * ECI  — Earth-centered inertial (mean equator/equinox; the library's
//            J2 theory is insensitive to the fine distinctions).
//   * ECEF — Earth-centered Earth-fixed, rotating with the Earth.
//   * Geodetic — WGS-84 latitude/longitude/altitude.
//   * Sun-relative — (latitude, local mean solar time) pair; the natural
//            coordinate system of the paper's demand model.
#ifndef SSPLANE_ASTRO_FRAMES_H
#define SSPLANE_ASTRO_FRAMES_H

#include "astro/time.h"
#include "util/vec3.h"

namespace ssplane::astro {

/// Geodetic coordinates on the WGS-84 ellipsoid.
struct geodetic {
    double latitude_deg = 0.0;  ///< Geodetic latitude [-90, 90].
    double longitude_deg = 0.0; ///< Longitude (-180, 180].
    double altitude_m = 0.0;    ///< Height above the ellipsoid [m].
};

/// Sun-relative coordinates: where a point sits in the solar day.
struct sun_relative {
    double latitude_deg = 0.0;       ///< Geocentric latitude [-90, 90].
    double local_solar_time_h = 0.0; ///< Mean solar time of day [0, 24).
};

/// Geodetic -> ECEF position [m].
vec3 geodetic_to_ecef(const geodetic& g) noexcept;

/// ECEF position [m] -> geodetic (iterative; sub-millimeter at LEO).
geodetic ecef_to_geodetic(const vec3& r_ecef) noexcept;

/// ECI -> ECEF at time `t` (rotation by GMST about the z axis).
vec3 eci_to_ecef(const vec3& r_eci, const instant& t) noexcept;

/// ECI -> ECEF with a precomputed GMST angle: batched sweeps evaluate
/// `gmst_rad(t)` once per time step and rotate every satellite with it.
vec3 eci_to_ecef_at_gmst(const vec3& r_eci, double gmst) noexcept;

/// Sun-relative coordinates of an ECI position at time `t`.
sun_relative eci_to_sun_relative(const vec3& r_eci, const instant& t) noexcept;

/// Geocentric (spherical) latitude of an ECI/ECEF position [rad].
double geocentric_latitude_rad(const vec3& r) noexcept;

/// Elevation angle [rad] of a satellite at ECEF position `sat_ecef` as seen
/// from the ground site at ECEF position `site_ecef` (spherical-Earth
/// observer geometry on the ellipsoidal ground position; accurate to small
/// fractions of a degree). Sweep loops convert each site once.
double elevation_angle_rad(const vec3& site_ecef, const vec3& sat_ecef) noexcept;

} // namespace ssplane::astro

#endif // SSPLANE_ASTRO_FRAMES_H
