// Population-targeted multi-shell Walker-delta baseline (paper §4.3).
//
// The paper's comparison constellations are Walker-delta shells stacked
// slightly above/below the design altitude "at different inclinations
// determined by maximum population density at each latitude". A shell
// provides one satellite-capacity, uniformly in time, to every latitude it
// covers — so latitude φ needs at least ceil(peak-demand(φ)) shells whose
// inclination reaches φ. Shell k's inclination is therefore the highest
// latitude whose peak demand is >= k, and its size comes from the coverage
// sizer.
#ifndef SSPLANE_CORE_WALKER_BASELINE_H
#define SSPLANE_CORE_WALKER_BASELINE_H

#include <map>
#include <tuple>
#include <vector>

#include "constellation/coverage_analysis.h"
#include "constellation/walker.h"
#include "core/design_problem.h"

namespace ssplane::core {

/// Options for the Walker baseline construction. Shells sit 5 km apart,
/// no shell is inclined below 15°, and shells are sized at inclinations
/// rounded to 2° buckets (the sizing cache's granularity).
struct wd_baseline_options {
    /// Coverage-check fidelity used by the sizer.
    double grid_spacing_deg = 5.0;
    int n_time_steps = 64;
    /// When true, credit each shell with the number of satellites it keeps
    /// *simultaneously* visible everywhere in its band (a minimal continuous
    /// shell guarantees 2-4x overlap), instead of one capacity unit per
    /// shell. This is the generous reading of the paper's WD baseline; the
    /// strict one-unit-per-shell reading is the default.
    bool credit_overlap_capacity = false;
};

/// One shell of the baseline.
struct wd_shell {
    double altitude_m = 0.0;
    constellation::walker_parameters parameters;
};

/// Complete baseline design.
struct wd_baseline_result {
    std::vector<wd_shell> shells;
    int total_satellites = 0;
    bool satisfied = true; ///< False if some demand latitude was unreachable.
};

/// Designer with a sizing cache: sizing a shell is expensive and shells of
/// similar inclination recur across bandwidth multipliers.
class walker_baseline_designer {
public:
    explicit walker_baseline_designer(const wd_baseline_options& options = {});

    /// Build the multi-shell baseline for a design problem.
    wd_baseline_result design(const design_problem& problem);

private:
    struct sized_shell_info {
        constellation::walker_size_result sizing;
        int multiplicity = 1; ///< Guaranteed simultaneous coverage in band.
    };

    /// Size (or fetch from cache) a shell at the 2° bucket of `inclination_deg`.
    sized_shell_info sized_shell(double altitude_m, double inclination_deg,
                                 double min_elevation_rad);

    wd_baseline_options options_;
    /// Keyed on (altitude, minimum elevation, inclination bucket): every
    /// input of the sizing.
    std::map<std::tuple<double, double, long>, sized_shell_info> cache_;
};

} // namespace ssplane::core

#endif // SSPLANE_CORE_WALKER_BASELINE_H
