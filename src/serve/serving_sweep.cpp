#include "serve/serving_sweep.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::serve {

serving_sweep_result run_serving_sweep_timeline(
    const lsn::snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_timeline& timeline, const session_grid& grid,
    const serving_options& options)
{
    OBS_SPAN("serve.sweep");
    OBS_COUNT("serve.sweep.runs");
    OBS_COUNT_N("serve.sweep.steps", offsets_s.size());
    lsn::validate_sweep_inputs(builder, offsets_s, positions, timeline);
    // Fail on degenerate knobs before the parallel fan-out so the error is
    // a clear contract_violation, not one racing out of a worker.
    validate(options);
    const int n_steps = static_cast<int>(offsets_s.size());

    // Per-step result slots: each step writes only its own entry, so the
    // parallel chunking never affects the serial reduction below.
    const auto per_step = parallel_map<beam_assignment>(
        static_cast<std::size_t>(n_steps), [&](std::size_t i) {
            return assign_beams(grid, positions[i], timeline.step(static_cast<int>(i)),
                                builder.epoch().plus_seconds(offsets_s[i]), options);
        });

    serving_sweep_result result;
    result.n_steps = n_steps;
    result.step_served_fraction.reserve(per_step.size());
    result.step_sessions_active.reserve(per_step.size());
    result.step_sessions_dropped.reserve(per_step.size());
    result.step_sessions_degraded.reserve(per_step.size());
    result.step_p99_session_rate_mbps.reserve(per_step.size());
    result.step_delivered_gbps.reserve(per_step.size());

    double active_sum = 0.0;
    double offered_sum = 0.0;
    double delivered_sum = 0.0;
    double served_fraction_sum = 0.0;
    std::vector<session_rate_group> pooled; // (step, beam) order — deterministic
    auto& m = result.metrics;
    m.sessions_homed = grid.total_sessions;
    m.min_step_served_fraction = n_steps > 0 ? 1.0 : 0.0;
    for (const beam_assignment& step : per_step) {
        active_sum += static_cast<double>(step.sessions_active);
        offered_sum += step.offered_gbps;
        delivered_sum += step.delivered_gbps;
        const double served = step.served_fraction();
        served_fraction_sum += served;
        m.min_step_served_fraction = std::min(m.min_step_served_fraction, served);
        m.sessions_dropped_max =
            std::max(m.sessions_dropped_max, step.sessions_dropped);
        m.sessions_degraded_max =
            std::max(m.sessions_degraded_max, step.sessions_degraded);
        pooled.insert(pooled.end(), step.rate_groups.begin(),
                      step.rate_groups.end());
        result.step_served_fraction.push_back(served);
        result.step_sessions_active.push_back(
            static_cast<double>(step.sessions_active));
        result.step_sessions_dropped.push_back(
            static_cast<double>(step.sessions_dropped));
        result.step_sessions_degraded.push_back(
            static_cast<double>(step.sessions_degraded));
        result.step_p99_session_rate_mbps.push_back(
            session_rate_percentile(step.rate_groups, 1.0));
        result.step_delivered_gbps.push_back(step.delivered_gbps);
    }

    if (n_steps > 0) {
        m.sessions_active_mean = active_sum / n_steps;
        m.offered_gbps_mean = offered_sum / n_steps;
        m.delivered_gbps_mean = delivered_sum / n_steps;
        m.served_fraction_mean = served_fraction_sum / n_steps;
    }
    // No offered load = vacuously delivered, matching the traffic sweep's
    // convention (an empty sweep stays 0, like every other metric).
    m.delivered_fraction = offered_sum > 0.0 ? delivered_sum / offered_sum
                                             : (n_steps > 0 ? 1.0 : 0.0);
    m.p50_session_rate_mbps = session_rate_percentile(pooled, 50.0);
    m.p99_session_rate_mbps = session_rate_percentile(pooled, 1.0);
    m.time_to_restore_s = time_to_restore(result.step_served_fraction, offsets_s,
                                          options.restore_served_fraction);
    m.recovery_headroom = lsn::recovery_headroom(result.step_served_fraction);
    return result;
}

double time_to_restore(std::span<const double> step_served_fraction,
                       std::span<const double> offsets_s, double threshold)
{
    expects(step_served_fraction.size() == offsets_s.size(),
            "trace and offsets must align");
    std::size_t dip = step_served_fraction.size();
    for (std::size_t i = 0; i < step_served_fraction.size(); ++i) {
        if (step_served_fraction[i] < threshold) {
            dip = i;
            break;
        }
    }
    if (dip == step_served_fraction.size()) return -1.0;
    for (std::size_t i = dip + 1; i < step_served_fraction.size(); ++i)
        if (step_served_fraction[i] >= threshold)
            return offsets_s[i] - offsets_s[dip];
    return std::numeric_limits<double>::infinity();
}

} // namespace ssplane::serve
