// Session-level serving evaluation along failure timelines.
//
// Runs the beam-assignment pass at every step of the sweep grid under
// each timeline's per-step failure mask and reduces to user-level SLOs:
// the delivered-rate percentiles every session experiences (p50, and the
// p99 floor — the rate 99% of session-steps meet or exceed), the
// worst-step dropped/degraded session counts, and the time-to-restore
// after a strike (first time the full-SLO served fraction dips below the
// restore threshold until it first recovers).
//
// One call serves a whole batch of timelines ("rows") step-major: each
// step's visibility and activity are discovered once, on the geometry's
// positions and the whole thread pool (`discover_visibility` ignores the
// mask), then every row packs against that one table in a parallel pass
// over rows. Each (row, step) result folds straight into its row's running
// reduction — in step order, so a row of a batch is bit-identical to the
// same row run alone — and the pooled rate distribution keeps one
// histogram entry per distinct rate (percentiles walk the sorted rates, so
// merging equal rates cannot move them). Only one step's visibility table
// is alive at a time. Any SSPLANE_THREADS value is bit-identical.
#ifndef SSPLANE_SERVE_SERVING_SWEEP_H
#define SSPLANE_SERVE_SERVING_SWEEP_H

#include <span>
#include <vector>

#include "lsn/scenario.h"
#include "lsn/timeline.h"
#include "serve/beam_assignment.h"

namespace ssplane::serve {

/// Scalar user-level SLOs of one sweep.
struct serving_metrics {
    std::int64_t sessions_homed = 0;     ///< Sampled sessions in the grid.
    double sessions_active_mean = 0.0;   ///< Mean awake sessions per step.
    double offered_gbps_mean = 0.0;
    double delivered_gbps_mean = 0.0;
    double delivered_fraction = 0.0;     ///< Pooled delivered / offered.
    double served_fraction_mean = 0.0;   ///< Mean full-SLO fraction per step.
    double min_step_served_fraction = 0.0;
    /// Percentiles of the delivered rate over every (session, step) pair.
    /// p99 is the *floor*: the rate 99% of session-steps meet or exceed.
    double p50_session_rate_mbps = 0.0;
    double p99_session_rate_mbps = 0.0;
    std::int64_t sessions_dropped_max = 0;  ///< Worst step.
    std::int64_t sessions_degraded_max = 0; ///< Worst step.
    /// Seconds from the served fraction first dipping below the restore
    /// threshold until it first recovers: -1 = never dipped, +infinity =
    /// dipped and never restored within the sweep window.
    double time_to_restore_s = -1.0;
    /// `lsn::recovery_headroom` of the served-fraction trace.
    double recovery_headroom = 0.0;
};

/// Full sweep result: the scalars plus per-step SLO traces aligned with
/// the sweep offsets.
struct serving_sweep_result {
    serving_metrics metrics;
    int n_steps = 0;
    std::vector<double> step_served_fraction;
    std::vector<double> step_sessions_active;
    std::vector<double> step_sessions_dropped;
    std::vector<double> step_sessions_degraded;
    std::vector<double> step_p99_session_rate_mbps;
    std::vector<double> step_delivered_gbps;
};

/// Serve `grid` at every step of the geometry's time grid, discovering on
/// its positions, under each timeline's per-step mask; one result per
/// timeline, in order. Bit-identical for any SSPLANE_THREADS value, and
/// each result equals the one the timeline gets when it is served alone.
std::vector<serving_sweep_result> run_serving_sweep_timeline(
    const lsn::sweep_geometry& geometry,
    const std::vector<const lsn::failure_timeline*>& timelines,
    const session_grid& grid, const serving_options& options);

/// Restore time of a served-fraction trace: seconds from the first step
/// strictly below `threshold` to the first later step at or above it.
/// -1 when the trace never dips; +infinity when it dips and never comes
/// back within the trace.
double time_to_restore(std::span<const double> step_served_fraction,
                       std::span<const double> offsets_s, double threshold);

} // namespace ssplane::serve

#endif // SSPLANE_SERVE_SERVING_SWEEP_H
