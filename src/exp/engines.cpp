#include "exp/metric_engine.h"

#include <algorithm>

namespace ssplane::exp {

namespace {

template <class T>
engine_output make_output(std::vector<double> values, T result)
{
    engine_output out;
    out.values = std::move(values);
    out.detail = std::make_shared<const T>(std::move(result));
    out.detail_type = &typeid(T);
    return out;
}

template <class T>
const T& typed_detail(const engine_output& output)
{
    expects(output.detail != nullptr, "cell has no detail payload");
    expects(output.detail_type != nullptr && *output.detail_type == typeid(T),
            "cell detail is not the requested engine's result type");
    return *static_cast<const T*>(output.detail.get());
}

} // namespace

// --- survivability ---------------------------------------------------------

survivability_engine::survivability_engine()
    : metric_engine("survivability",
                    {"n_failed", "giant_component_fraction", "pair_reachable_fraction",
                     "mean_latency_ms", "p95_latency_ms", "time_to_partition_s",
                     "recovery_headroom"},
                    {"n_failed", "giant_component_fraction", "pair_reachable_fraction"})
{
}

engine_output survivability_engine::evaluate(
    const evaluation_context& context, const lsn::failure_timeline& timeline) const
{
    auto result = lsn::run_scenario_sweep_timeline(context.geometry(), timeline);
    const auto& m = result.metrics;
    // Degradation-trajectory reductions: "partitioned" = the giant
    // component holding less than half the constellation.
    const double time_to_partition =
        lsn::first_time_below(result.step_giant_fraction, context.offsets(), 0.5);
    const double headroom = lsn::recovery_headroom(result.step_giant_fraction);
    return make_output({static_cast<double>(m.n_failed), m.giant_component_fraction,
                        m.pair_reachable_fraction, m.mean_latency_ms,
                        m.p95_latency_ms, time_to_partition, headroom},
                       std::move(result));
}

std::vector<std::vector<double>> survivability_engine::step_traces(
    const engine_output& output) const
{
    const auto& result = detail(output);
    std::vector<double> n_failed(result.step_n_failed.begin(),
                                 result.step_n_failed.end());
    return {std::move(n_failed), result.step_giant_fraction,
            result.step_pair_reachable_fraction};
}

const lsn::scenario_sweep_result& survivability_engine::detail(
    const engine_output& output)
{
    return typed_detail<lsn::scenario_sweep_result>(output);
}

// --- traffic ----------------------------------------------------------------

traffic_engine::traffic_engine(const demand::demand_model& demand,
                               traffic::traffic_sweep_options options)
    : metric_engine("traffic",
                    {"offered_gbps_mean", "delivered_gbps_mean", "delivered_fraction",
                     "mean_path_latency_ms", "p95_link_utilization",
                     "congested_link_fraction", "min_step_delivered_fraction",
                     "recovery_headroom"},
                    {"offered_gbps", "delivered_fraction", "p95_utilization"}),
      demand_(&demand),
      options_(std::move(options))
{
    traffic::validate(options_.matrix);
    traffic::validate(options_.capacity);
}

engine_output traffic_engine::evaluate(const evaluation_context& context,
                                       const lsn::failure_timeline& timeline) const
{
    auto result = traffic::run_traffic_sweep_timeline(context.geometry(), timeline,
                                                      *demand_, options_);
    const auto& m = result.metrics;
    const double min_delivered = *std::min_element(
        result.step_delivered_fraction.begin(), result.step_delivered_fraction.end());
    const double headroom = lsn::recovery_headroom(result.step_delivered_fraction);
    return make_output({m.offered_gbps_mean, m.delivered_gbps_mean,
                        m.delivered_fraction, m.mean_path_latency_ms,
                        m.p95_link_utilization, m.congested_link_fraction,
                        min_delivered, headroom},
                       std::move(result));
}

std::vector<std::vector<double>> traffic_engine::step_traces(
    const engine_output& output) const
{
    const auto& result = detail(output);
    return {result.step_offered_gbps, result.step_delivered_fraction,
            result.step_p95_utilization};
}

const traffic::traffic_sweep_result& traffic_engine::detail(const engine_output& output)
{
    return typed_detail<traffic::traffic_sweep_result>(output);
}

// --- bulk -------------------------------------------------------------------

bulk_engine::bulk_engine(std::vector<tempo::bulk_transfer_request> requests,
                         tempo::bulk_route_options options, bool per_step_baseline)
    : metric_engine(per_step_baseline ? "bulk_per_step" : "bulk",
                    {"offered_gb", "delivered_gb", "delivered_fraction", "max_buffer_gb"}),
      requests_(std::move(requests)),
      options_(options),
      per_step_baseline_(per_step_baseline)
{
    tempo::validate(options_);
}

engine_output bulk_engine::evaluate(const evaluation_context& context,
                                    const lsn::failure_timeline& timeline) const
{
    auto result = per_step_baseline_
                      ? tempo::run_bulk_sweep_per_step_baseline_timeline(
                            context.geometry(), timeline, requests_, options_)
                      : tempo::run_bulk_sweep_timeline(context.geometry(), timeline,
                                                       requests_, options_);
    const auto& r = result.routing;
    return make_output({r.offered_gb, r.delivered_gb, r.delivered_fraction,
                        r.max_buffer_gb},
                       std::move(result));
}

const tempo::bulk_sweep_result& bulk_engine::detail(const engine_output& output)
{
    return typed_detail<tempo::bulk_sweep_result>(output);
}

// --- percolation -------------------------------------------------------------

namespace {

/// The detector knobs a threshold column runs with: the engine's masking
/// knobs, its per-step `metrics` and the column's `mode`. `masking.mode` and
/// `masking.metrics` are never read.
spectral::masking_threshold_options threshold_options(
    const percolation_engine_options& options, lsn::failure_mode mode)
{
    spectral::masking_threshold_options out = options.masking;
    out.metrics = options.metrics;
    out.mode = mode;
    return out;
}

/// The masking threshold of `topology` under the column's `mode`.
double masking_threshold(const lsn::lsn_topology& topology,
                         const percolation_engine_options& options,
                         lsn::failure_mode mode)
{
    return spectral::find_masking_threshold(topology, threshold_options(options, mode))
        .threshold_fraction;
}

} // namespace

void validate(const percolation_engine_options& options)
{
    spectral::validate(options.metrics);
    if (options.compute_masking_thresholds)
        for (const auto mode :
             {lsn::failure_mode::random_loss, lsn::failure_mode::plane_attack})
            spectral::validate(threshold_options(options, mode));
}

percolation_engine::percolation_engine(percolation_engine_options options)
    : metric_engine("percolation",
                    {"lambda2_mean", "lambda2_min", "giant_fraction_mean",
                     "giant_fraction_min", "susceptibility_mean", "susceptibility_max",
                     "clustering_mean", "masking_threshold_random_loss",
                     "masking_threshold_plane_attack", "lambda2_unconverged_steps"},
                    {"lambda2", "giant_component_fraction", "susceptibility",
                     "clustering", "lambda2_unconverged"}),
      options_(std::move(options))
{
    validate(options_);
}

engine_output percolation_engine::evaluate(
    const evaluation_context& context, const lsn::failure_timeline& timeline) const
{
    auto result = spectral::run_percolation_sweep_timeline(context.geometry(), timeline,
                                                           options_.metrics);
    double threshold_random = -1.0;
    double threshold_plane = -1.0;
    if (options_.compute_masking_thresholds) {
        const auto& topology = context.builder().topology();
        threshold_random =
            masking_threshold(topology, options_, lsn::failure_mode::random_loss);
        threshold_plane =
            masking_threshold(topology, options_, lsn::failure_mode::plane_attack);
    }
    return make_output({result.lambda2_mean, result.lambda2_min,
                        result.giant_fraction_mean, result.giant_fraction_min,
                        result.susceptibility_mean, result.susceptibility_max,
                        result.clustering_mean, threshold_random, threshold_plane,
                        static_cast<double>(result.lambda2_unconverged_steps)},
                       std::move(result));
}

std::vector<std::vector<double>> percolation_engine::step_traces(
    const engine_output& output) const
{
    const auto& result = detail(output);
    std::vector<double> unconverged(result.step_lambda2_unconverged.begin(),
                                    result.step_lambda2_unconverged.end());
    return {result.step_lambda2, result.step_giant_fraction,
            result.step_susceptibility, result.step_clustering, std::move(unconverged)};
}

const spectral::percolation_sweep_result& percolation_engine::detail(
    const engine_output& output)
{
    return typed_detail<spectral::percolation_sweep_result>(output);
}

// --- serving ----------------------------------------------------------------

serving_engine::serving_engine(const demand::population_model& population,
                               serve::serving_options options)
    : metric_engine("serving",
                    {"sessions_homed", "sessions_active_mean", "offered_gbps_mean",
                     "delivered_gbps_mean", "delivered_fraction", "served_fraction_mean",
                     "min_step_served_fraction", "p50_session_rate_mbps",
                     "p99_session_rate_mbps", "sessions_dropped_max",
                     "sessions_degraded_max", "time_to_restore_s", "recovery_headroom"},
                    {"served_fraction", "sessions_active", "sessions_dropped",
                     "sessions_degraded", "p99_session_rate_mbps", "delivered_gbps"}),
      options_(options),
      grid_(serve::sample_session_grid(population, options_))
{
}

engine_output serving_engine::evaluate(const evaluation_context& context,
                                       const lsn::failure_timeline& timeline) const
{
    return std::move(evaluate_rows(context, {&timeline}).front());
}

std::vector<engine_output> serving_engine::evaluate_rows(
    const evaluation_context& context,
    const std::vector<const lsn::failure_timeline*>& timelines) const
{
    auto results = serve::run_serving_sweep_timeline(context.geometry(), timelines,
                                                     grid_, options_);
    std::vector<engine_output> outputs;
    outputs.reserve(results.size());
    for (auto& result : results) {
        const auto& m = result.metrics;
        outputs.push_back(make_output(
            {static_cast<double>(m.sessions_homed), m.sessions_active_mean,
             m.offered_gbps_mean, m.delivered_gbps_mean, m.delivered_fraction,
             m.served_fraction_mean, m.min_step_served_fraction,
             m.p50_session_rate_mbps, m.p99_session_rate_mbps,
             static_cast<double>(m.sessions_dropped_max),
             static_cast<double>(m.sessions_degraded_max), m.time_to_restore_s,
             m.recovery_headroom},
            std::move(result)));
    }
    return outputs;
}

std::vector<std::vector<double>> serving_engine::step_traces(
    const engine_output& output) const
{
    const auto& result = detail(output);
    return {result.step_served_fraction,       result.step_sessions_active,
            result.step_sessions_dropped,      result.step_sessions_degraded,
            result.step_p99_session_rate_mbps, result.step_delivered_gbps};
}

const serve::serving_sweep_result& serving_engine::detail(
    const engine_output& output)
{
    return typed_detail<serve::serving_sweep_result>(output);
}

} // namespace ssplane::exp
