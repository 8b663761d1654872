// The SS-plane constellation design problem (paper §4.2, §4.3).
//
// Demand lives on the sun-relative (latitude × time-of-day) grid, measured
// in multiples of a single satellite's capacity (the paper's "bandwidth
// multiplier" normalization): the peak grid cell demands exactly
// `bandwidth_multiplier` satellite-capacities.
#ifndef SSPLANE_CORE_DESIGN_PROBLEM_H
#define SSPLANE_CORE_DESIGN_PROBLEM_H

#include "demand/demand_model.h"
#include "geo/coverage.h"
#include "geo/grid.h"

namespace ssplane::core {

/// A fully specified design instance.
struct design_problem {
    geo::lat_tod_grid demand;          ///< [satellite capacities] per cell.
    double bandwidth_multiplier = 1.0; ///< Peak cell demand in capacities.
    double altitude_m = 560.0e3;       ///< Design altitude.
    double min_elevation_rad = geo::default_min_elevation_rad;
};

/// Build a problem from the demand model: normalized sun-relative demand
/// scaled so its peak equals `bandwidth_multiplier`.
design_problem make_design_problem(const demand::demand_model& model,
                                   double bandwidth_multiplier,
                                   double altitude_m = 560.0e3,
                                   double min_elevation_rad = geo::default_min_elevation_rad);

/// Total residual demand volume (sum over cells) [satellite capacities].
double total_demand(const geo::lat_tod_grid& grid) noexcept;

/// Peak per-latitude demand: max over time-of-day for each latitude row
/// (what a time-uniform Walker supply must provision).
std::vector<double> peak_demand_by_latitude(const geo::lat_tod_grid& grid);

} // namespace ssplane::core

#endif // SSPLANE_CORE_DESIGN_PROBLEM_H
