// Constellation evaluators: satellite counts (paper Fig. 9) and per-satellite
// radiation exposure (paper Fig. 10).
#ifndef SSPLANE_CORE_EVALUATOR_H
#define SSPLANE_CORE_EVALUATOR_H

#include "astro/time.h"
#include "core/greedy_cover.h"
#include "core/walker_baseline.h"
#include "radiation/fluence.h"

namespace ssplane::core {

/// One (value, weight) sample for weighted order statistics.
struct weighted_sample {
    double value = 0.0;
    double weight = 0.0;
};

/// Weighted median: the smallest value whose cumulative weight reaches half
/// the total weight (samples sorted by value). Zero-weight samples never
/// shift the median; an empty input yields 0.
double weighted_median(std::vector<weighted_sample> samples);

/// Median per-satellite daily fluence across a constellation.
struct constellation_radiation_summary {
    double median_electron_fluence = 0.0; ///< [#/cm^2/MeV] per day.
    double median_proton_fluence = 0.0;   ///< [#/cm^2/MeV] per day.
    int sampled_orbits = 0;
};

/// Evaluation fidelity for radiation summaries.
struct radiation_eval_options {
    double step_s = 20.0;        ///< Fluence integration step.
    int max_sampled_planes = 24; ///< Per design (SS) or per shell (WD).
};

/// Radiation summary for an SS design: one representative satellite per
/// sampled plane (satellites within a plane see near-identical daily doses).
constellation_radiation_summary ss_constellation_radiation(
    const ss_design_result& design,
    const radiation::radiation_environment& env,
    const astro::instant& day,
    const radiation_eval_options& options = {});

/// Radiation summary for a Walker baseline: representative satellites per
/// sampled plane of every shell, weighted by the satellites they represent.
constellation_radiation_summary wd_constellation_radiation(
    const wd_baseline_result& design,
    const radiation::radiation_environment& env,
    const astro::instant& day,
    const radiation_eval_options& options = {});

/// Convenience: design both constellations for one bandwidth multiplier, at
/// the default design altitude and minimum elevation, with the paper's
/// greedy cover.
struct design_comparison {
    double bandwidth_multiplier = 0.0;
    ss_design_result ss;
    wd_baseline_result wd;
};
design_comparison compare_designs(const demand::demand_model& model,
                                  double bandwidth_multiplier,
                                  walker_baseline_designer& wd_designer);

} // namespace ssplane::core

#endif // SSPLANE_CORE_EVALUATOR_H
