#include "lsn/simulator.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/expects.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace ssplane::lsn {

latency_stats simulate_pair_latency(const lsn_topology& topology,
                                    const std::vector<ground_station>& stations,
                                    int ground_a, int ground_b,
                                    const astro::instant& epoch,
                                    const scenario_sweep_options& options)
{
    expects(ground_a >= 0 && static_cast<std::size_t>(ground_a) < stations.size(),
            "bad ground index a");
    expects(ground_b >= 0 && static_cast<std::size_t>(ground_b) < stations.size(),
            "bad ground index b");

    const snapshot_builder builder(topology, stations, epoch,
                                   options.min_elevation_rad, options.max_isl_range_m);
    const auto offsets = sweep_offsets(options.duration_s, options.step_s);
    const auto positions = builder.positions_at_offsets(offsets);

    // Per-step slots keep the reduction order fixed regardless of how the
    // pool chunks the steps.
    struct step_route {
        double latency_ms = 0.0;
        double hops = 0.0;
        bool reachable = false;
    };
    const auto per_step =
        parallel_map<step_route>(offsets.size(), [&](std::size_t i) -> step_route {
            const auto snap = builder.snapshot_from_positions(positions[i]);
            const auto route = ground_route(snap, ground_a, ground_b);
            if (!route.reachable) return {};
            return {route.latency_s * 1000.0, static_cast<double>(route.hops), true};
        });

    std::vector<double> latencies_ms;
    std::vector<double> hops;
    int reachable = 0;
    for (const auto& step : per_step) {
        if (!step.reachable) continue;
        ++reachable;
        latencies_ms.push_back(step.latency_ms);
        hops.push_back(step.hops);
    }

    latency_stats stats;
    stats.reachable_fraction =
        !offsets.empty() ? static_cast<double>(reachable) /
                               static_cast<double>(offsets.size())
                         : 0.0;
    if (!latencies_ms.empty()) {
        stats.mean_latency_ms = mean(latencies_ms);
        stats.p95_latency_ms = percentile(latencies_ms, 95.0);
        stats.min_latency_ms = min_value(latencies_ms);
        stats.max_latency_ms = max_value(latencies_ms);
        stats.mean_hops = mean(hops);
    }
    return stats;
}

double coverage_fraction(const lsn_topology& topology,
                         const ground_station& station,
                         const astro::instant& epoch,
                         const scenario_sweep_options& options)
{
    const snapshot_builder builder(topology, {station}, epoch,
                                   options.min_elevation_rad, options.max_isl_range_m);
    const auto offsets = sweep_offsets(options.duration_s, options.step_s);
    const auto positions = builder.positions_at_offsets(offsets);

    const auto covered =
        parallel_map<std::uint8_t>(offsets.size(), [&](std::size_t i) -> std::uint8_t {
            const auto snap = builder.snapshot_from_positions(positions[i]);
            return !snap.adjacency[static_cast<std::size_t>(snap.ground_node(0))].empty();
        });

    int n_covered = 0;
    for (const auto c : covered) n_covered += c;
    return !offsets.empty()
               ? static_cast<double>(n_covered) / static_cast<double>(offsets.size())
               : 0.0;
}

} // namespace ssplane::lsn
