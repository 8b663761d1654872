// Walker-delta constellation generator.
//
// A Walker-delta pattern i:T/P/F places T satellites in P planes of T/P
// satellites each, planes spread evenly over 360° of RAAN, with an
// inter-plane phase offset of F * 360°/T.
#ifndef SSPLANE_CONSTELLATION_WALKER_H
#define SSPLANE_CONSTELLATION_WALKER_H

#include <vector>

#include "astro/kepler.h"

namespace ssplane::constellation {

/// Parameters of a Walker-delta shell.
struct walker_parameters {
    double altitude_m = 550.0e3;
    double inclination_rad = 0.0;
    int n_planes = 1;
    int sats_per_plane = 1;
    int phasing_f = 0;      ///< Walker phasing factor, 0 <= F < n_planes.
    double raan0_rad = 0.0; ///< RAAN of plane 0.
    double anomaly0_rad = 0.0; ///< Argument of latitude of sat 0 in plane 0.

    int total() const noexcept { return n_planes * sats_per_plane; }
};

/// One constellation member with its design indices.
struct satellite {
    int plane = 0;
    int slot = 0;
    astro::orbital_elements elements;
};

/// Generate all satellites of a Walker-delta shell (circular orbits).
std::vector<satellite> make_walker_delta(const walker_parameters& params);

} // namespace ssplane::constellation

#endif // SSPLANE_CONSTELLATION_WALKER_H
