#include "serve/serving_sweep.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::serve {

namespace {

/// `groups` sorted by rate with equal rates merged into one entry.
std::vector<session_rate_group> merge_rates(std::vector<session_rate_group> groups)
{
    std::sort(groups.begin(), groups.end(),
              [](const session_rate_group& a, const session_rate_group& b) {
                  return a.rate_mbps < b.rate_mbps;
              });
    std::vector<session_rate_group> merged;
    for (const session_rate_group& g : groups) {
        if (!merged.empty() && merged.back().rate_mbps == g.rate_mbps)
            merged.back().sessions += g.sessions;
        else
            merged.push_back(g);
    }
    return merged;
}

/// One row's running reduction over the steps served so far.
struct row_reduction {
    serving_sweep_result result;
    double active_sum = 0.0;
    double offered_sum = 0.0;
    double delivered_sum = 0.0;
    double served_fraction_sum = 0.0;
    /// Every (session, step) rate so far, one entry per distinct rate.
    std::vector<session_rate_group> rates;

    /// Fold the next step's assignment in; steps must arrive in order.
    void add(const beam_assignment& step)
    {
        active_sum += static_cast<double>(step.sessions_active);
        offered_sum += step.offered_gbps;
        delivered_sum += step.delivered_gbps;
        const double served = step.served_fraction();
        served_fraction_sum += served;
        auto& m = result.metrics;
        m.min_step_served_fraction = std::min(m.min_step_served_fraction, served);
        m.sessions_dropped_max =
            std::max(m.sessions_dropped_max, step.sessions_dropped);
        m.sessions_degraded_max =
            std::max(m.sessions_degraded_max, step.sessions_degraded);
        const auto step_rates = merge_rates(step.rate_groups);
        result.step_served_fraction.push_back(served);
        result.step_sessions_active.push_back(
            static_cast<double>(step.sessions_active));
        result.step_sessions_dropped.push_back(
            static_cast<double>(step.sessions_dropped));
        result.step_sessions_degraded.push_back(
            static_cast<double>(step.sessions_degraded));
        result.step_p99_session_rate_mbps.push_back(
            session_rate_percentile(step_rates, 1.0));
        result.step_delivered_gbps.push_back(step.delivered_gbps);
        rates.insert(rates.end(), step_rates.begin(), step_rates.end());
        rates = merge_rates(std::move(rates));
    }

    /// The SLO scalars of the finished trace.
    serving_sweep_result finish(std::span<const double> offsets_s,
                                const serving_options& options) &&
    {
        const int n_steps = result.n_steps;
        auto& m = result.metrics;
        m.sessions_active_mean = active_sum / n_steps;
        m.offered_gbps_mean = offered_sum / n_steps;
        m.delivered_gbps_mean = delivered_sum / n_steps;
        m.served_fraction_mean = served_fraction_sum / n_steps;
        // No offered load = vacuously delivered, matching the traffic
        // sweep's convention.
        m.delivered_fraction = offered_sum > 0.0 ? delivered_sum / offered_sum : 1.0;
        m.p50_session_rate_mbps = session_rate_percentile(rates, 50.0);
        m.p99_session_rate_mbps = session_rate_percentile(rates, 1.0);
        m.time_to_restore_s = time_to_restore(result.step_served_fraction, offsets_s,
                                              options.restore_served_fraction);
        m.recovery_headroom = lsn::recovery_headroom(result.step_served_fraction);
        return std::move(result);
    }
};

} // namespace

std::vector<serving_sweep_result> run_serving_sweep_timeline(
    const lsn::sweep_geometry& geometry,
    const std::vector<const lsn::failure_timeline*>& timelines,
    const session_grid& grid, const serving_options& options)
{
    OBS_SPAN("serve.sweep");
    for (const lsn::failure_timeline* timeline : timelines) {
        expects(timeline != nullptr, "serving sweep timeline must not be null");
        geometry.validate(*timeline);
    }
    // Fail on degenerate knobs before the parallel fan-out so the error is
    // a clear contract_violation, not one racing out of a worker.
    validate(options);
    const std::size_t n_rows = timelines.size();
    const auto offsets_s = geometry.offsets();
    const std::size_t n_steps = offsets_s.size();
    OBS_COUNT_N("serve.sweep.runs", n_rows);
    OBS_COUNT_N("serve.sweep.steps", n_rows * n_steps);

    std::vector<row_reduction> rows(n_rows);
    for (row_reduction& row : rows) {
        row.result.n_steps = static_cast<int>(n_steps);
        row.result.metrics.sessions_homed = grid.total_sessions;
        row.result.metrics.min_step_served_fraction = 1.0;
    }
    // Step-major: one visibility table (and one activity pass) per step,
    // packed by every row. Each row's reduction is touched only by its own
    // task, in step order.
    for (std::size_t i = 0; i < n_steps && n_rows > 0; ++i) {
        const visibility_table visibility = discover_visibility(
            grid, geometry.positions()[i],
            geometry.builder().epoch().plus_seconds(offsets_s[i]), options);
        parallel_for(n_rows, [&](std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r)
                rows[r].add(pack_beams(visibility,
                                       timelines[r]->step(static_cast<int>(i)), options));
        });
    }

    std::vector<serving_sweep_result> results;
    results.reserve(n_rows);
    for (row_reduction& row : rows)
        results.push_back(std::move(row).finish(offsets_s, options));
    return results;
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
