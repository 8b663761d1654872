#include "astro/kepler.h"

#include <cmath>

#include "util/expects.h"

namespace ssplane::astro {

double mean_motion_rad_s(double semi_major_axis_m) noexcept
{
    return std::sqrt(mu_earth / (semi_major_axis_m * semi_major_axis_m * semi_major_axis_m));
}

double orbital_period_s(double semi_major_axis_m) noexcept
{
    return two_pi / mean_motion_rad_s(semi_major_axis_m);
}

double semi_major_axis_for_period_m(double period_s) noexcept
{
    const double n = two_pi / period_s;
    return std::cbrt(mu_earth / (n * n));
}

double semi_major_axis_for_altitude_m(double altitude_m) noexcept
{
    return earth_mean_radius_m + altitude_m;
}

double solve_kepler(double mean_anomaly_rad, double eccentricity)
{
    expects(eccentricity >= 0.0 && eccentricity < 1.0,
            "solve_kepler needs elliptical eccentricity in [0, 1)");
    const double m = wrap_pi(mean_anomaly_rad);

    // Good starting guess (Vallado): E0 = M + e*sin(M) works for all e < 1.
    double e_anom = m + eccentricity * std::sin(m);
    for (int i = 0; i < 50; ++i) {
        const double f = e_anom - eccentricity * std::sin(e_anom) - m;
        const double fp = 1.0 - eccentricity * std::cos(e_anom);
        const double step = f / fp;
        e_anom -= step;
        if (std::abs(step) < 1e-13) break;
    }
    return e_anom;
}

double true_from_eccentric(double eccentric_anomaly_rad, double eccentricity) noexcept
{
    const double half = eccentric_anomaly_rad / 2.0;
    return 2.0 * std::atan2(std::sqrt(1.0 + eccentricity) * std::sin(half),
                            std::sqrt(1.0 - eccentricity) * std::cos(half));
}

state_vector elements_to_state(const orbital_elements& el)
{
    expects(el.semi_major_axis_m > 0.0, "semi-major axis must be positive");
    expects(el.eccentricity >= 0.0 && el.eccentricity < 1.0,
            "eccentricity must be in [0, 1)");

    const double e_anom = solve_kepler(el.mean_anomaly_rad, el.eccentricity);
    const double nu = true_from_eccentric(e_anom, el.eccentricity);
    const double p = el.semi_major_axis_m * (1.0 - el.eccentricity * el.eccentricity);
    const double r = p / (1.0 + el.eccentricity * std::cos(nu));

    // Perifocal frame (PQW).
    const vec3 r_pqw{r * std::cos(nu), r * std::sin(nu), 0.0};
    const double coeff = std::sqrt(mu_earth / p);
    const vec3 v_pqw{-coeff * std::sin(nu), coeff * (el.eccentricity + std::cos(nu)), 0.0};

    // PQW -> ECI: Rz(raan) * Rx(incl) * Rz(argp).
    auto to_eci = [&](const vec3& v) {
        return rotate_z(rotate_x(rotate_z(v, el.arg_perigee_rad), el.inclination_rad),
                        el.raan_rad);
    };
    return {to_eci(r_pqw), to_eci(v_pqw)};
}

} // namespace ssplane::astro
