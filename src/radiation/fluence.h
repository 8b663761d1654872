// Fluence accumulation along orbits and flux maps at fixed altitude.
//
// These are the reductions the paper plots:
//   * flux maps at one altitude, max over sampled days  (Fig. 6),
//   * daily fluence as a function of inclination        (Fig. 7),
//   * per-satellite daily fluence across a constellation (Fig. 10).
#ifndef SSPLANE_RADIATION_FLUENCE_H
#define SSPLANE_RADIATION_FLUENCE_H

#include <cstdint>
#include <vector>

#include "astro/propagator.h"
#include "geo/grid.h"
#include "radiation/belts.h"

namespace ssplane::radiation {

/// Accumulated fluence at the reference energies [#/cm^2/MeV].
struct fluence_result {
    double electrons_cm2_mev = 0.0;
    double protons_cm2_mev = 0.0;
};

/// Integrate flux along `orbit` from `start` for `duration_s` with fixed
/// `step_s` sampling (trapezoid-equivalent at these smooth fields).
fluence_result accumulate_fluence(const radiation_environment& env,
                                  const astro::j2_propagator& orbit,
                                  const astro::instant& start,
                                  double duration_s,
                                  double step_s = 10.0);

/// One-day fluence for a circular orbit of given altitude/inclination with
/// RAAN/phase defaults — the paper's Fig. 7 primitive.
fluence_result daily_fluence(const radiation_environment& env,
                             double altitude_m,
                             double inclination_rad,
                             const astro::instant& day,
                             double raan_rad = 0.0,
                             double step_s = 10.0);

/// Electron (and proton) flux field at a fixed altitude for one instant.
struct flux_maps {
    geo::lat_lon_grid electrons; ///< [#/cm^2/s/MeV]
    geo::lat_lon_grid protons;   ///< [#/cm^2/s/MeV]
};
flux_maps flux_map_at_altitude(const radiation_environment& env,
                               double altitude_m,
                               double cell_deg,
                               const astro::instant& t);

/// Cell-wise maximum electron flux over `n_days` sampled from solar
/// cycle 24 (paper Fig. 6: "maximum electron radiation ... over a sample of
/// 128 days from solar cycle 24"). Activity only scales the non-negative
/// outer belt (flux_components), so each cell is evaluated once, at the
/// sample's largest outer-belt scale.
geo::lat_lon_grid max_electron_flux_map(const radiation_environment& env,
                                        double altitude_m,
                                        double cell_deg,
                                        int n_days,
                                        std::uint64_t seed);

} // namespace ssplane::radiation

#endif // SSPLANE_RADIATION_FLUENCE_H
