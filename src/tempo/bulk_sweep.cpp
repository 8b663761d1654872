#include "tempo/bulk_sweep.h"

#include "util/parallel.h"

namespace ssplane::tempo {

namespace {

/// Every step's snapshot under `timeline.step(i)`, in per-step slots.
std::vector<lsn::network_snapshot> masked_snapshots(const lsn::sweep_geometry& geometry,
                                                    const lsn::failure_timeline& timeline)
{
    geometry.validate(timeline);
    return parallel_map<lsn::network_snapshot>(
        static_cast<std::size_t>(geometry.n_steps()), [&](std::size_t i) {
            const int step = static_cast<int>(i);
            return geometry.snapshot(step, timeline.step(step));
        });
}

} // namespace

bulk_sweep_result run_bulk_sweep_timeline(const lsn::sweep_geometry& geometry,
                                          const lsn::failure_timeline& timeline,
                                          std::span<const bulk_transfer_request> requests,
                                          const bulk_route_options& options)
{
    auto graph = build_time_expanded_graph_timeline(
        masked_snapshots(geometry, timeline), geometry.offsets(), timeline, options);

    bulk_sweep_result result;
    result.n_steps = graph.n_steps;
    result.n_failed = timeline.final_n_failed();
    result.routing = route_bulk_transfers(graph, requests);
    return result;
}

bulk_sweep_result run_bulk_sweep_per_step_baseline_timeline(
    const lsn::sweep_geometry& geometry, const lsn::failure_timeline& timeline,
    std::span<const bulk_transfer_request> requests, const bulk_route_options& options)
{
    bulk_sweep_result result;
    result.routing = route_bulk_transfers_per_step_baseline(
        masked_snapshots(geometry, timeline), geometry.offsets(), requests, options);
    result.n_steps = geometry.n_steps();
    result.n_failed = timeline.final_n_failed();
    return result;
}

double delivered_volume_ratio(const bulk_sweep_result& baseline,
                              const bulk_sweep_result& scenario)
{
    if (baseline.routing.delivered_gb <= 0.0) return 0.0;
    return scenario.routing.delivered_gb / baseline.routing.delivered_gb;
}

} // namespace ssplane::tempo
