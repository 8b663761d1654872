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

double eccentric_from_true(double true_anomaly_rad, double eccentricity) noexcept
{
    const double half = true_anomaly_rad / 2.0;
    return 2.0 * std::atan2(std::sqrt(1.0 - eccentricity) * std::sin(half),
                            std::sqrt(1.0 + eccentricity) * std::cos(half));
}

double mean_from_eccentric(double eccentric_anomaly_rad, double eccentricity) noexcept
{
    return eccentric_anomaly_rad - eccentricity * std::sin(eccentric_anomaly_rad);
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

orbital_elements state_to_elements(const state_vector& sv)
{
    const vec3& r = sv.position_m;
    const vec3& v = sv.velocity_m_s;
    const double rn = r.norm();
    expects(rn > 0.0, "position must be non-zero");

    const vec3 h = r.cross(v);          // specific angular momentum
    const double hn = h.norm();
    const vec3 node = vec3{0.0, 0.0, 1.0}.cross(h); // node line
    const double nn = node.norm();

    const vec3 e_vec = (v.cross(h)) / mu_earth - r / rn;
    const double ecc = e_vec.norm();
    const double energy = v.norm_squared() / 2.0 - mu_earth / rn;

    orbital_elements el;
    el.semi_major_axis_m = -mu_earth / (2.0 * energy);
    el.eccentricity = ecc;
    el.inclination_rad = safe_acos(h.z / hn);

    constexpr double tiny = 1e-11;
    el.raan_rad = (nn > tiny) ? wrap_two_pi(std::atan2(node.y, node.x)) : 0.0;

    double nu; // true anomaly
    if (ecc > tiny) {
        if (nn > tiny) {
            double argp = angle_between(node, e_vec);
            if (e_vec.z < 0.0) argp = two_pi - argp;
            el.arg_perigee_rad = wrap_two_pi(argp);
        } else {
            el.arg_perigee_rad = wrap_two_pi(std::atan2(e_vec.y, e_vec.x));
        }
        nu = angle_between(e_vec, r);
        if (r.dot(v) < 0.0) nu = two_pi - nu;
    } else {
        // Circular orbit: measure from the node (argument of latitude).
        el.arg_perigee_rad = 0.0;
        if (nn > tiny) {
            nu = angle_between(node, r);
            if (r.z < 0.0) nu = two_pi - nu;
        } else {
            nu = std::atan2(r.y, r.x); // equatorial circular
        }
    }
    const double e_anom = eccentric_from_true(nu, ecc);
    el.mean_anomaly_rad = wrap_two_pi(mean_from_eccentric(e_anom, ecc));
    return el;
}

double latitude_at_argument_rad(double inclination_rad, double arg_latitude_rad) noexcept
{
    return safe_asin(std::sin(inclination_rad) * std::sin(arg_latitude_rad));
}

} // namespace ssplane::astro
