#include "tempo/bulk_sweep.h"

namespace ssplane::tempo {

bulk_sweep_result run_bulk_sweep_timeline(
    const lsn::snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_timeline& timeline,
    std::span<const bulk_transfer_request> requests,
    const bulk_route_options& options)
{
    auto graph = build_time_expanded_graph_timeline(builder, offsets_s, positions,
                                                    timeline, options);

    bulk_sweep_result result;
    result.n_steps = graph.n_steps;
    result.n_failed = timeline.final_n_failed();
    result.routing = route_bulk_transfers(graph, requests);
    return result;
}

bulk_sweep_result run_bulk_sweep_per_step_baseline_timeline(
    const lsn::snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_timeline& timeline,
    std::span<const bulk_transfer_request> requests,
    const bulk_route_options& options)
{
    validate(options); // fail before paying the parallel materialization
    const auto snapshots =
        materialize_snapshots_timeline(builder, offsets_s, positions, timeline);

    bulk_sweep_result result;
    result.n_steps = static_cast<int>(offsets_s.size());
    result.n_failed = timeline.final_n_failed();
    result.routing = route_bulk_transfers_per_step_baseline(snapshots, offsets_s,
                                                            requests, options);
    return result;
}

double delivered_volume_ratio(const bulk_sweep_result& baseline,
                              const bulk_sweep_result& scenario)
{
    if (baseline.routing.delivered_gb <= 0.0) return 0.0;
    return scenario.routing.delivered_gb / baseline.routing.delivered_gb;
}

} // namespace ssplane::tempo
