// Classical orbital elements, anomaly conversions and the Kepler equation.
#ifndef SSPLANE_ASTRO_KEPLER_H
#define SSPLANE_ASTRO_KEPLER_H

#include "astro/constants.h"
#include "util/vec3.h"

namespace ssplane::astro {

/// Classical (Keplerian) orbital elements. Angles in radians, lengths in meters.
struct orbital_elements {
    double semi_major_axis_m = 0.0;
    double eccentricity = 0.0;
    double inclination_rad = 0.0;
    double raan_rad = 0.0;        ///< Right ascension of the ascending node.
    double arg_perigee_rad = 0.0; ///< Argument of perigee.
    double mean_anomaly_rad = 0.0;
};

/// Inertial position and velocity.
struct state_vector {
    vec3 position_m;
    vec3 velocity_m_s;
};

/// Mean motion n = sqrt(mu/a^3) [rad/s].
double mean_motion_rad_s(double semi_major_axis_m) noexcept;

/// Orbital period [s].
double orbital_period_s(double semi_major_axis_m) noexcept;

/// Semi-major axis for a given orbital period [m].
double semi_major_axis_for_period_m(double period_s) noexcept;

/// Circular-orbit altitude above the mean Earth radius -> semi-major axis [m].
double semi_major_axis_for_altitude_m(double altitude_m) noexcept;

/// Solve Kepler's equation M = E - e*sin(E) for the eccentric anomaly E.
/// Converges for all e in [0, 1); tolerance ~1e-13 rad.
double solve_kepler(double mean_anomaly_rad, double eccentricity);

/// True anomaly from eccentric anomaly.
double true_from_eccentric(double eccentric_anomaly_rad, double eccentricity) noexcept;

/// Convert elements to an ECI state vector.
state_vector elements_to_state(const orbital_elements& el);

} // namespace ssplane::astro

#endif // SSPLANE_ASTRO_KEPLER_H
