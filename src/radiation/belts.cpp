#include "radiation/belts.h"

#include <cmath>

#include "astro/constants.h"
#include "util/angles.h"

namespace ssplane::radiation {

namespace {

double gaussian(double x, double center, double width) noexcept
{
    const double d = (x - center) / width;
    return std::exp(-d * d);
}

} // namespace

radiation_environment::radiation_environment()
    : radiation_environment(dipole_model::eccentric_2015(), belt_parameters{})
{
}

radiation_environment::radiation_environment(const dipole_model& dipole,
                                             const belt_parameters& params)
    : dipole_(dipole), params_(params)
{
}

flux_components radiation_environment::components_at(const vec3& r_ecef_m) const noexcept
{
    flux_components out;

    const double r = r_ecef_m.norm();
    if (r < astro::earth_mean_radius_m + params_.atmospheric_cutoff_altitude_m)
        return out;

    const magnetic_coordinates mc = dipole_.coordinates_at(r_ecef_m);
    const double b_ratio = mc.b_over_b0();
    if (b_ratio <= 0.0) return out;

    // Drift-shell atmospheric loss (inner belt only): a particle observed
    // here drifts through all longitudes at (roughly) constant dipole
    // distance; with the eccentric dipole that sweep dips by up to the
    // center offset, and shells reaching the atmosphere anywhere are
    // emptied. This is the mechanism that makes the SAA the only low-L flux
    // region at LEO. The diffusion-replenished outer electron belt is
    // exempt (its LEO "horns" are continuously refilled from above).
    const double r_dipole = (r_ecef_m - dipole_.center_offset_m()).norm();
    const double min_drift_altitude = r_dipole - dipole_.center_offset_m().norm() -
                                      astro::earth_mean_radius_m;
    const double inner_survival =
        clamp((min_drift_altitude - params_.atmospheric_cutoff_altitude_m) /
                  params_.drift_loss_taper_m,
              0.0, 1.0);

    // Electrons: inner belt + outer belt (to be scaled by activity), each
    // thinned away from the magnetic equator with its own pitch-angle
    // steepness.
    out.electron_inner =
        params_.electron_inner_amplitude * inner_survival *
        gaussian(mc.l_shell, params_.electron_inner_center_l,
                 params_.electron_inner_width_l) *
        std::pow(b_ratio, -params_.electron_inner_confinement_exponent);
    out.electron_outer =
        params_.electron_outer_amplitude *
        gaussian(mc.l_shell, params_.electron_outer_center_l,
                 params_.electron_outer_width_l) *
        std::pow(b_ratio, -params_.electron_outer_confinement_exponent);

    // Protons: single inner belt, more strongly confined to the equator.
    out.proton = params_.proton_amplitude * inner_survival *
                 gaussian(mc.l_shell, params_.proton_center_l, params_.proton_width_l) *
                 std::pow(b_ratio, -params_.proton_confinement_exponent);

    return out;
}

double radiation_environment::outer_activity_scale(double activity) const noexcept
{
    return params_.electron_activity_floor + params_.electron_activity_gain * activity;
}

double radiation_environment::proton_activity_scale(double activity) const noexcept
{
    // Protons mildly anti-correlate with activity (atmospheric losses).
    return params_.proton_activity_floor +
           params_.proton_activity_slope * std::min(activity, 1.5);
}

particle_flux radiation_environment::combine(const flux_components& c,
                                             double activity) const noexcept
{
    particle_flux out;
    out.electrons_cm2_s_mev =
        c.electron_inner + c.electron_outer * outer_activity_scale(activity);
    out.protons_cm2_s_mev = c.proton * proton_activity_scale(activity);
    return out;
}

particle_flux radiation_environment::flux(const vec3& r_ecef_m,
                                          double activity) const noexcept
{
    return combine(components_at(r_ecef_m), activity);
}

} // namespace ssplane::radiation
