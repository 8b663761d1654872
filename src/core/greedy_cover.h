// The paper's greedy SS-plane cover algorithm (§4.2) plus ablation variants
// and lower bounds.
//
// Loop until all demand is satisfied:
//   (1) pick the (latitude, time-of-day) cell with maximum residual demand,
//   (2) add the SS-plane through that cell (ascending or descending branch,
//       whichever covers more residual demand) and subtract one satellite
//       capacity from every cell its street covers (clamped at zero),
//   (3) repeat.
#ifndef SSPLANE_CORE_GREEDY_COVER_H
#define SSPLANE_CORE_GREEDY_COVER_H

#include <cstdint>
#include <vector>

#include "core/design_problem.h"

namespace ssplane::core {

/// Seed-cell selection rule; `max_demand` is the paper's rule, the others
/// exist for the ablation bench.
enum class seed_rule : std::uint8_t {
    max_demand,   ///< Paper §4.2: maximum-residual cell.
    random_cell,  ///< Random positive-residual cell.
    min_demand,   ///< Smallest positive-residual cell (worst-first strawman).
};

/// Options controlling the search. Every plane carries the street minimum
/// of satellites (`resolve_sats_per_plane`).
struct ss_design_options {
    int max_planes = 200000;     ///< Safety cap.
    seed_rule rule = seed_rule::max_demand;
    std::uint64_t seed = 42;     ///< Only used by seed_rule::random_cell.
};

/// One selected plane.
struct designed_plane {
    double ltan_h = 0.0;
    double inclination_rad = 0.0;
    double altitude_m = 0.0;
    int n_sats = 0;
    double covered_demand = 0.0; ///< Residual demand removed by this plane.
};

/// Complete design output.
struct ss_design_result {
    std::vector<designed_plane> planes;
    int total_satellites = 0;
    int sats_per_plane = 0;
    double swath_half_width_rad = 0.0; ///< Capacity swath of each plane (λ).
    bool satisfied = false;        ///< All residual demand driven to zero.
    double residual_demand = 0.0;  ///< Leftover (0 when satisfied).
};

/// Run the greedy cover on a design problem.
ss_design_result greedy_ss_cover(const design_problem& problem,
                                 const ss_design_options& options = {});

/// Lower bounds on the number of *planes* any SS design needs:
/// max over cells of ceil(demand) (a cell can only receive one capacity per
/// plane) and total-volume / per-plane-coverage.
struct plane_lower_bounds {
    int per_cell_bound = 0;
    int volume_bound = 0;
    int best() const noexcept
    {
        return per_cell_bound > volume_bound ? per_cell_bound : volume_bound;
    }
};
plane_lower_bounds ss_plane_lower_bounds(const design_problem& problem);

/// Satellites per plane for this problem: the fewest that close a
/// street of coverage at its altitude and minimum elevation.
int resolve_sats_per_plane(const design_problem& problem);

} // namespace ssplane::core

#endif // SSPLANE_CORE_GREEDY_COVER_H
