// Delivered-capacity sweeps along failure timelines — the traffic companion
// to `lsn::run_scenario_sweep_timeline` (ROADMAP "heavy traffic" north star).
// Per-step work (diurnal gravity matrix at that step's instant, the step's
// masked snapshot from the shared `lsn::sweep_geometry`, capacity-aware flow
// assignment) fans out over `util/parallel` with per-step result slots, so
// any `SSPLANE_THREADS` value reproduces the metrics bit-for-bit.
#ifndef SSPLANE_TRAFFIC_TRAFFIC_SWEEP_H
#define SSPLANE_TRAFFIC_TRAFFIC_SWEEP_H

#include <vector>

#include "lsn/scenario.h"
#include "traffic/flow_assignment.h"
#include "traffic/traffic_matrix.h"

namespace ssplane::traffic {

/// Matrix shape and link capacities of a traffic sweep.
struct traffic_sweep_options {
    traffic_matrix_options matrix{};
    capacity_options capacity{};
};

/// Scalar delivered-capacity metrics over the sweep window.
struct traffic_metrics {
    double offered_gbps_mean = 0.0;    ///< Mean offered load over steps.
    double delivered_gbps_mean = 0.0;  ///< Mean delivered load over steps.
    double delivered_fraction = 0.0;   ///< Pooled: sum delivered / sum offered;
                                       ///< 1 when nothing was offered.
    double mean_path_latency_ms = 0.0; ///< Flow-weighted over all delivered traffic.
    double p95_link_utilization = 0.0; ///< Over (link, step) samples.
    /// Mean over steps of the fraction of links at or above 99.9% utilization.
    double congested_link_fraction = 0.0;
};

/// Full sweep output: scalar metrics plus per-step traces.
struct traffic_sweep_result {
    traffic_metrics metrics;
    int n_steps = 0;
    int n_stations = 0;
    std::vector<double> step_offered_gbps;
    std::vector<double> step_delivered_fraction;
    std::vector<double> step_p95_utilization;
};

/// Sweep one failure timeline over the geometry: each step `i` assigns flows
/// on its snapshot under `timeline.step(i)`, so delivered throughput traces
/// the failure process as it unfolds; the traffic matrix is rebuilt at every
/// step's instant, so offered load follows the diurnal cycle across the
/// gateways. Bit-identical for any `SSPLANE_THREADS` value.
traffic_sweep_result run_traffic_sweep_timeline(
    const lsn::sweep_geometry& geometry, const lsn::failure_timeline& timeline,
    const demand::demand_model& demand, const traffic_sweep_options& options = {});

/// Delivered-throughput ratio of `scenario` to `baseline` (1 = no loss,
/// < 1 = capacity lost to the failures). 0 when the baseline delivered
/// nothing.
double delivered_throughput_ratio(const traffic_sweep_result& baseline,
                                  const traffic_sweep_result& scenario);

} // namespace ssplane::traffic

#endif // SSPLANE_TRAFFIC_TRAFFIC_SWEEP_H
