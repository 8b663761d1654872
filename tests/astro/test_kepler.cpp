#include "astro/kepler.h"

#include <cmath>

#include <gtest/gtest.h>

#include "../util/cross.h"
#include "util/expects.h"

namespace ssplane::astro {
namespace {

// The inverses of the live conversions, kept test-side: the round trips
// below hold true_from_eccentric and elements_to_state to them.

double eccentric_from_true(double true_anomaly_rad, double eccentricity)
{
    const double half = true_anomaly_rad / 2.0;
    return 2.0 * std::atan2(std::sqrt(1.0 - eccentricity) * std::sin(half),
                            std::sqrt(1.0 + eccentricity) * std::cos(half));
}

double mean_from_eccentric(double eccentric_anomaly_rad, double eccentricity)
{
    return eccentric_anomaly_rad - eccentricity * std::sin(eccentric_anomaly_rad);
}

/// Elements from an ECI state vector, away from the usual singularities:
/// e = 0 and i = 0 get conventional angles.
orbital_elements state_to_elements(const state_vector& sv)
{
    const vec3& r = sv.position_m;
    const vec3& v = sv.velocity_m_s;
    const double rn = r.norm();
    const vec3 h = cross(r, v);                      // specific angular momentum
    const double hn = h.norm();
    const vec3 node = cross(vec3{0.0, 0.0, 1.0}, h); // node line
    const double nn = node.norm();

    const vec3 e_vec = cross(v, h) / mu_earth - r / rn;
    const double ecc = e_vec.norm();
    const double energy = v.dot(v) / 2.0 - mu_earth / rn;

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

struct kepler_case {
    double eccentricity;
    double mean_anomaly;
};

class KeplerSolver : public ::testing::TestWithParam<kepler_case> {};

TEST_P(KeplerSolver, SatisfiesKeplersEquation)
{
    const auto p = GetParam();
    const double e_anom = solve_kepler(p.mean_anomaly, p.eccentricity);
    const double m_back = e_anom - p.eccentricity * std::sin(e_anom);
    EXPECT_NEAR(wrap_pi(m_back - p.mean_anomaly), 0.0, 1e-11);
}

TEST_P(KeplerSolver, AnomalyRoundTrip)
{
    const auto p = GetParam();
    const double e_anom = solve_kepler(p.mean_anomaly, p.eccentricity);
    const double nu = true_from_eccentric(e_anom, p.eccentricity);
    const double e_back = eccentric_from_true(nu, p.eccentricity);
    EXPECT_NEAR(wrap_pi(e_back - e_anom), 0.0, 1e-10);
    EXPECT_NEAR(wrap_pi(mean_from_eccentric(e_back, p.eccentricity) - p.mean_anomaly),
                0.0, 1e-10);
}

std::vector<kepler_case> kepler_cases()
{
    std::vector<kepler_case> cases;
    for (double e : {0.0, 0.01, 0.1, 0.3, 0.6, 0.9, 0.99}) {
        for (double m : {-3.0, -1.5, -0.1, 0.0, 0.5, 1.0, 2.0, 3.1, 6.0}) {
            cases.push_back({e, m});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(SweepEccentricityAnomaly, KeplerSolver,
                         ::testing::ValuesIn(kepler_cases()));

TEST(Kepler, SolverRejectsHyperbolic)
{
    EXPECT_THROW(solve_kepler(1.0, 1.0), contract_violation);
    EXPECT_THROW(solve_kepler(1.0, -0.1), contract_violation);
}

TEST(Kepler, PeriodAndMeanMotion)
{
    // ISS-like orbit: a ~ 6,780 km -> period ~ 92.5 minutes.
    const double a = 6.78e6;
    EXPECT_NEAR(orbital_period_s(a) / 60.0, 92.56, 0.2);
    EXPECT_NEAR(semi_major_axis_for_period_m(orbital_period_s(a)), a, 1.0);
    // Geostationary: period of one sidereal day -> a ~ 42,164 km.
    EXPECT_NEAR(semi_major_axis_for_period_m(sidereal_day_s), 4.21641e7, 1.0e4);
}

TEST(Kepler, CircularOrbitStateGeometry)
{
    orbital_elements el;
    el.semi_major_axis_m = 7.0e6;
    el.inclination_rad = deg2rad(51.6);
    el.raan_rad = deg2rad(40.0);
    el.mean_anomaly_rad = deg2rad(75.0);
    const auto sv = elements_to_state(el);
    EXPECT_NEAR(sv.position_m.norm(), 7.0e6, 1.0);
    // Circular speed = sqrt(mu/a).
    EXPECT_NEAR(sv.velocity_m_s.norm(), std::sqrt(mu_earth / 7.0e6), 1e-3);
    // Velocity is perpendicular to position for circular orbits.
    EXPECT_NEAR(sv.position_m.dot(sv.velocity_m_s), 0.0, 1.0);
}

struct element_case {
    double a;
    double e;
    double i_deg;
    double raan_deg;
    double argp_deg;
    double m_deg;
};

class ElementsRoundTrip : public ::testing::TestWithParam<element_case> {};

TEST_P(ElementsRoundTrip, StateToElementsInverts)
{
    const auto p = GetParam();
    orbital_elements el;
    el.semi_major_axis_m = p.a;
    el.eccentricity = p.e;
    el.inclination_rad = deg2rad(p.i_deg);
    el.raan_rad = deg2rad(p.raan_deg);
    el.arg_perigee_rad = deg2rad(p.argp_deg);
    el.mean_anomaly_rad = deg2rad(p.m_deg);

    const auto back = state_to_elements(elements_to_state(el));
    EXPECT_NEAR(back.semi_major_axis_m, p.a, p.a * 1e-9);
    EXPECT_NEAR(back.eccentricity, p.e, 1e-9);
    EXPECT_NEAR(back.inclination_rad, el.inclination_rad, 1e-9);
    if (p.i_deg > 0.01) {
        EXPECT_NEAR(wrap_pi(back.raan_rad - el.raan_rad), 0.0, 1e-8);
    }
    if (p.e > 1e-6) {
        EXPECT_NEAR(wrap_pi(back.arg_perigee_rad - el.arg_perigee_rad), 0.0, 1e-6);
        EXPECT_NEAR(wrap_pi(back.mean_anomaly_rad - el.mean_anomaly_rad), 0.0, 1e-6);
    } else {
        // Circular: only the argument of latitude (argp + M) is defined.
        EXPECT_NEAR(wrap_pi((back.arg_perigee_rad + back.mean_anomaly_rad) -
                            (el.arg_perigee_rad + el.mean_anomaly_rad)), 0.0, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SweepElements, ElementsRoundTrip,
    ::testing::Values(element_case{7.0e6, 0.0, 53.0, 10.0, 0.0, 30.0},
                      element_case{7.0e6, 0.001, 97.6, 120.0, 45.0, 200.0},
                      element_case{6.9e6, 0.01, 65.0, 300.0, 90.0, 10.0},
                      element_case{8.0e6, 0.2, 30.0, 200.0, 270.0, 100.0},
                      element_case{2.66e7, 0.74, 63.4, 60.0, 270.0, 5.0},
                      element_case{7.5e6, 0.0, 0.5, 0.0, 0.0, 77.0}));

TEST(Kepler, LatitudeAtArgument)
{
    // On a circular orbit the state at argument of latitude u sits at
    // latitude asin(sin i sin u): 0 at the node, i a quarter orbit later,
    // and 180 - i for a retrograde inclination.
    const auto latitude_deg = [](double inclination_deg, double u_rad) {
        orbital_elements el;
        el.semi_major_axis_m = 6.93e6;
        el.inclination_rad = deg2rad(inclination_deg);
        el.raan_rad = deg2rad(30.0);
        el.mean_anomaly_rad = u_rad;
        const vec3 r = elements_to_state(el).position_m;
        return rad2deg(std::asin(r.z / r.norm()));
    };
    EXPECT_NEAR(latitude_deg(65.0, 0.0), 0.0, 1e-12);
    EXPECT_NEAR(latitude_deg(65.0, pi / 2.0), 65.0, 1e-9);
    EXPECT_NEAR(latitude_deg(97.6, pi / 2.0), 180.0 - 97.6, 1e-9);
    for (double u = 0.0; u < two_pi; u += 0.37) {
        const double expected = rad2deg(std::asin(std::sin(deg2rad(97.6)) * std::sin(u)));
        EXPECT_NEAR(latitude_deg(97.6, u), expected, 1e-9) << "u = " << u;
    }
}

} // namespace
} // namespace ssplane::astro
