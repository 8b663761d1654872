#include "traffic/traffic_sweep.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace ssplane::traffic {

namespace {

/// Links at or above this utilization count as congested.
constexpr double congested_threshold = 0.999;

} // namespace

traffic_sweep_result run_traffic_sweep_timeline(
    const lsn::sweep_geometry& geometry, const lsn::failure_timeline& timeline,
    const demand::demand_model& demand, const traffic_sweep_options& options)
{
    OBS_SPAN("traffic.sweep");
    OBS_COUNT("traffic.sweep.runs");
    OBS_COUNT_N("traffic.sweep.steps", geometry.offsets().size());
    geometry.validate(timeline);
    // Fail on degenerate knobs before the parallel fan-out so the error is
    // a clear contract_violation, not one racing out of a worker.
    validate(options.matrix);
    validate(options.capacity);
    const int n_steps = geometry.n_steps();
    const auto& builder = geometry.builder();

    // Per-step result slots: each step writes only its own entry, so the
    // parallel chunking never affects the serial reduction below. The step's
    // utilization statistics are drawn here from its per-link loads.
    struct step_result {
        double offered_gbps = 0.0;
        double delivered_gbps = 0.0;
        double latency_flow_sum_s = 0.0;
        std::size_t congested_links = 0;
        double p95_utilization = 0.0;
        std::vector<double> utilization; ///< Per-link, by link id.
    };
    const auto per_step = parallel_map<step_result>(
        static_cast<std::size_t>(n_steps), [&](std::size_t i) {
            const auto t = builder.epoch().plus_seconds(geometry.offsets()[i]);
            const auto matrix =
                build_traffic_matrix(demand, builder.stations(), t, options.matrix);
            const auto snap = geometry.snapshot(static_cast<int>(i),
                                                timeline.step(static_cast<int>(i)));
            const auto flow = assign_flows(snap, matrix, options.capacity);
            step_result slot;
            slot.offered_gbps = flow.offered_gbps;
            slot.delivered_gbps = flow.delivered_gbps;
            slot.latency_flow_sum_s = flow.latency_flow_sum_gbps_s;
            slot.utilization.reserve(flow.links.size());
            for (const auto& link : flow.links) {
                slot.utilization.push_back(link.utilization());
                if (slot.utilization.back() >= congested_threshold)
                    ++slot.congested_links;
            }
            slot.p95_utilization = percentile(slot.utilization, 95.0);
            return slot;
        });

    traffic_sweep_result result;
    result.n_steps = n_steps;
    result.n_stations = builder.n_ground();
    result.step_offered_gbps.reserve(per_step.size());
    result.step_delivered_fraction.reserve(per_step.size());
    result.step_p95_utilization.reserve(per_step.size());

    double offered_sum = 0.0;
    double delivered_sum = 0.0;
    double latency_flow_sum_s = 0.0;
    double congested_fraction_sum = 0.0;
    std::vector<double> pooled_utilization; // (step, link) order — deterministic
    for (const auto& step : per_step) {
        offered_sum += step.offered_gbps;
        delivered_sum += step.delivered_gbps;
        latency_flow_sum_s += step.latency_flow_sum_s;
        if (!step.utilization.empty())
            congested_fraction_sum += static_cast<double>(step.congested_links) /
                                      static_cast<double>(step.utilization.size());
        pooled_utilization.insert(pooled_utilization.end(), step.utilization.begin(),
                                  step.utilization.end());
        result.step_offered_gbps.push_back(step.offered_gbps);
        result.step_delivered_fraction.push_back(
            step.offered_gbps > 0.0 ? step.delivered_gbps / step.offered_gbps : 1.0);
        result.step_p95_utilization.push_back(step.p95_utilization);
    }

    auto& m = result.metrics;
    m.offered_gbps_mean = offered_sum / n_steps;
    m.delivered_gbps_mean = delivered_sum / n_steps;
    m.congested_link_fraction = congested_fraction_sum / n_steps;
    // Matches flow_result's convention: no offered load = vacuously delivered.
    m.delivered_fraction = offered_sum > 0.0 ? delivered_sum / offered_sum : 1.0;
    m.mean_path_latency_ms =
        delivered_sum > 0.0 ? latency_flow_sum_s / delivered_sum * 1000.0 : 0.0;
    std::sort(pooled_utilization.begin(), pooled_utilization.end());
    m.p95_link_utilization = percentile_sorted(pooled_utilization, 95.0);
    return result;
}

double delivered_throughput_ratio(const traffic_sweep_result& baseline,
                                  const traffic_sweep_result& scenario)
{
    if (baseline.metrics.delivered_gbps_mean <= 0.0) return 0.0;
    return scenario.metrics.delivered_gbps_mean / baseline.metrics.delivered_gbps_mean;
}

} // namespace ssplane::traffic
