// The traced pass of the campaign benchmark: per-layer costs measured from
// outside the library, by replaying each layer's public functions on the
// workload's own inputs one call at a time, plus the deterministic obs
// counters of one campaign.
#ifndef CAMPAIGN_BENCH_REPLAY_H
#define CAMPAIGN_BENCH_REPLAY_H

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "workload.h"

namespace bench {

/// One reported metric.
struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Names and units of every per-layer metric, in report order.
const std::vector<metric>& per_layer_metrics();

/// Replay-timed per-layer values, keyed by metric name.
struct layer_replay {
    std::map<std::string, double> values;
    double distinct_steps = 0.0; ///< Distinct (timeline, step) pairs replayed.
};

/// Replay every layer on `setup`, whose context must be cold (no timeline
/// fetched yet). Kernel replays run on one thread, one call at a time, as a
/// campaign worker runs them; the prefetch and the propagation pass use the
/// full pool, as the campaign does.
layer_replay replay_layers(const workload_setup& setup);

/// Campaign-level inputs of the report.
struct campaign_timing {
    double untraced_s = 0.0; ///< run_campaign with spans off.
    double traced_s = 0.0;   ///< run_campaign with obs spans recording.
    double cpu_s = 0.0;      ///< Process CPU over the untraced run.
    unsigned pool_threads = 1;
};

/// `per_layer_metrics()` filled from the replay, the campaign timings and
/// `counters`: the obs registry snapshot after the untraced campaign, with
/// the registry reset right before it.
std::vector<metric> per_layer_report(layer_replay replay, const campaign_timing& timing,
                                     const std::vector<obs::metric_sample>& counters);

} // namespace bench

#endif // CAMPAIGN_BENCH_REPLAY_H
