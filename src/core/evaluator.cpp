#include "core/evaluator.h"

#include <algorithm>
#include <cmath>

#include "constellation/sun_sync.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::core {

double weighted_median(std::vector<weighted_sample> samples)
{
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end(),
              [](const weighted_sample& a, const weighted_sample& b) {
                  return a.value < b.value;
              });
    double total = 0.0;
    for (const auto& s : samples) total += s.weight;
    double acc = 0.0;
    for (const auto& s : samples) {
        acc += s.weight;
        if (acc >= total / 2.0) return s.value;
    }
    return samples.back().value;
}

namespace {

/// Per-plane daily dose and the satellites it represents.
struct plane_dose {
    radiation::fluence_result fluence;
    double weight = 0.0;
};

/// One fluence integration task of the fan-out below.
struct dose_task {
    double altitude_m = 0.0;
    double inclination_rad = 0.0;
    double raan_rad = 0.0;
    double weight = 0.0;
};

/// Evaluate every task's daily fluence on the pool (index-ordered results,
/// so the downstream medians are independent of scheduling).
std::vector<plane_dose> evaluate_doses(const std::vector<dose_task>& tasks,
                                       const radiation::radiation_environment& env,
                                       const astro::instant& day,
                                       const radiation_eval_options& options)
{
    return parallel_map<plane_dose>(tasks.size(), [&](std::size_t i) {
        const dose_task& task = tasks[i];
        return plane_dose{radiation::daily_fluence(env, task.altitude_m,
                                                   task.inclination_rad, day,
                                                   task.raan_rad, options.step_s),
                          task.weight};
    });
}

constellation_radiation_summary summarize(const std::vector<plane_dose>& doses)
{
    constellation_radiation_summary out;
    std::vector<weighted_sample> electrons;
    std::vector<weighted_sample> protons;
    electrons.reserve(doses.size());
    protons.reserve(doses.size());
    for (const auto& dose : doses) {
        electrons.push_back({dose.fluence.electrons_cm2_mev, dose.weight});
        protons.push_back({dose.fluence.protons_cm2_mev, dose.weight});
    }
    out.sampled_orbits = static_cast<int>(doses.size());
    out.median_electron_fluence = weighted_median(std::move(electrons));
    out.median_proton_fluence = weighted_median(std::move(protons));
    return out;
}

} // namespace

constellation_radiation_summary ss_constellation_radiation(
    const ss_design_result& design,
    const radiation::radiation_environment& env,
    const astro::instant& day,
    const radiation_eval_options& options)
{
    if (design.planes.empty()) return {};

    // Sample up to max_sampled_planes planes evenly across the design.
    const std::size_t n = design.planes.size();
    const std::size_t stride =
        std::max<std::size_t>(1, n / static_cast<std::size_t>(options.max_sampled_planes));

    std::vector<dose_task> tasks;
    for (std::size_t i = 0; i < n; i += stride) {
        const designed_plane& plane = design.planes[i];
        tasks.push_back({plane.altitude_m, plane.inclination_rad,
                         constellation::raan_for_ltan_rad(plane.ltan_h, day),
                         static_cast<double>(plane.n_sats) *
                             static_cast<double>(stride)});
    }
    return summarize(evaluate_doses(tasks, env, day, options));
}

constellation_radiation_summary wd_constellation_radiation(
    const wd_baseline_result& design,
    const radiation::radiation_environment& env,
    const astro::instant& day,
    const radiation_eval_options& options)
{
    std::vector<dose_task> tasks;
    for (const auto& shell : design.shells) {
        const int p = shell.parameters.n_planes;
        const int sampled = std::min(p, options.max_sampled_planes);
        for (int k = 0; k < sampled; ++k) {
            // Evenly spaced plane indices within the shell.
            const int plane_index = static_cast<int>(
                static_cast<double>(k) * static_cast<double>(p) / sampled);
            const double raan =
                shell.parameters.raan0_rad +
                two_pi * static_cast<double>(plane_index) / static_cast<double>(p);
            tasks.push_back({shell.altitude_m, shell.parameters.inclination_rad, raan,
                             static_cast<double>(shell.parameters.sats_per_plane) *
                                 static_cast<double>(p) / sampled});
        }
    }
    return summarize(evaluate_doses(tasks, env, day, options));
}

design_comparison compare_designs(const demand::demand_model& model,
                                  double bandwidth_multiplier,
                                  walker_baseline_designer& wd_designer)
{
    design_comparison out;
    out.bandwidth_multiplier = bandwidth_multiplier;
    const design_problem problem = make_design_problem(model, bandwidth_multiplier);
    out.ss = greedy_ss_cover(problem);
    out.wd = wd_designer.design(problem);
    return out;
}

} // namespace ssplane::core
