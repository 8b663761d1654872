// Simulation-based coverage verification and Walker-delta sizing.
//
// A constellation "covers" a latitude band when every test point in the band
// sees at least one satellite above the minimum elevation angle at every
// sampled time over one nodal day. Sizing searches (S, P, F) families for
// the smallest verified total — the paper's "minimum uniform coverage
// Walker-delta" baseline (Fig. 1).
#ifndef SSPLANE_CONSTELLATION_COVERAGE_ANALYSIS_H
#define SSPLANE_CONSTELLATION_COVERAGE_ANALYSIS_H

#include <span>
#include <vector>

#include "astro/time.h"
#include "constellation/walker.h"
#include "geo/coverage.h"
#include "util/vec3.h"

namespace ssplane::constellation {

/// Sampling fidelity and requirement for coverage checks.
struct coverage_check_options {
    double min_elevation_rad = geo::default_min_elevation_rad;
    double max_latitude_deg = 65.0;  ///< Band requirement: |lat| <= this.
    double grid_spacing_deg = 4.0;   ///< Test-point spacing (quasi equal-area).
    int n_time_steps = 96;           ///< Samples over one nodal day.
};

/// Quasi equal-area test points (unit vectors, ECEF==ECI convention chosen
/// by the caller) within |lat| <= max_latitude_deg.
std::vector<vec3> coverage_test_points(double max_latitude_deg, double grid_spacing_deg);

/// True when every sampled point is covered at every sampled time.
/// Satellites are propagated with secular J2 from `epoch`.
bool covers_continuously(std::span<const satellite> sats,
                         const astro::instant& epoch,
                         const coverage_check_options& options);

/// Mean number of simultaneously visible satellites over the sampled
/// (point, time) pairs — a minimal continuous shell typically averages
/// 2-4x overlap even though its guaranteed minimum is 1.
double mean_simultaneous_coverage(std::span<const satellite> sats,
                                  const astro::instant& epoch,
                                  const coverage_check_options& options);

/// Result of a Walker sizing search.
struct walker_size_result {
    bool found = false;
    walker_parameters parameters;
    int total = 0;
};

/// Find the smallest Walker-delta shell at (altitude, inclination) that
/// continuously covers the requested band. Searches sats-per-plane values
/// from the street-of-coverage minimum upward and phasing F in {0, 1, 2}.
walker_size_result size_walker_for_coverage(double altitude_m,
                                            double inclination_rad,
                                            const coverage_check_options& options);

} // namespace ssplane::constellation

#endif // SSPLANE_CONSTELLATION_COVERAGE_ANALYSIS_H
