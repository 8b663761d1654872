// Capacity-aware multipath flow assignment over one network snapshot.
//
// Greedy k-round water-filling: every round freezes a congestion-penalized
// latency cost per snapshot link id (infinite once saturated), computes one
// shortest-path tree per *source* gateway `a` with `lsn::single_source_routes`
// (stopping once the gateways b > a still owed more than 1e-9 Gbps are
// settled), and routes each pair's remaining demand along its tree path up
// to the path's bottleneck residual capacity.
// Demand that does not fit spills to the next round, where saturated links
// have dropped out and loaded links weigh more — the k rounds therefore
// realize k-shortest-path splitting without per-pair re-Dijkstra. Pair
// order is fixed (a < b, row order), so results are deterministic.
#ifndef SSPLANE_TRAFFIC_FLOW_ASSIGNMENT_H
#define SSPLANE_TRAFFIC_FLOW_ASSIGNMENT_H

#include <cstdint>
#include <vector>

#include "lsn/topology.h"
#include "traffic/traffic_matrix.h"

namespace ssplane::traffic {

/// Link capacities and assignment knobs.
struct capacity_options {
    double isl_capacity_gbps = 20.0;    ///< Per inter-satellite link.
    double uplink_capacity_gbps = 40.0; ///< Per ground<->satellite link.
    int k_rounds = 4;                   ///< Water-filling rounds (path diversity).
    /// Weight multiplier slope on utilization: weight = latency *
    /// (1 + congestion_penalty * load/capacity). 0 = pure latency rounds.
    double congestion_penalty = 4.0;
    /// Links at or above this utilization count as congested.
    double congested_threshold = 0.999;
};

/// Reject degenerate capacity knobs — non-positive or non-finite link
/// capacities, `k_rounds < 1`, a negative congestion penalty or a
/// non-positive congestion threshold — with a clear `contract_violation`
/// instead of silently producing degenerate assignments. Every assignment
/// and sweep entry point calls this; callers constructing options
/// programmatically can call it early themselves.
void validate(const capacity_options& options);

/// Capacity and load of one snapshot link (which holds its endpoints).
struct link_load {
    double capacity_gbps = 0.0;
    double load_gbps = 0.0;

    double utilization() const
    {
        return capacity_gbps > 0.0 ? load_gbps / capacity_gbps : 0.0;
    }
};

/// Delivered-throughput outcome of one assignment.
struct flow_result {
    double offered_gbps = 0.0;
    double delivered_gbps = 0.0;
    double delivered_fraction = 1.0; ///< delivered/offered; 1 when offered = 0.
    double mean_path_latency_ms = 0.0; ///< Flow-weighted over delivered traffic.
    /// Sum over delivered flow of flow x path latency [Gbps*s] — the exact
    /// numerator of `mean_path_latency_ms`, for cross-step pooling.
    double latency_flow_sum_gbps_s = 0.0;
    int n_links = 0;
    int congested_links = 0;
    double mean_utilization = 0.0;
    double p95_utilization = 0.0;
    double max_utilization = 0.0;
    std::vector<double> pair_delivered_gbps; ///< Row-major symmetric n x n.
    std::vector<link_load> links; ///< Per-link loads by link id after assignment.
    /// Per snapshot node: 1 when the node lay on a path some pair was
    /// routed along in any round, whether or not that path carried flow.
    /// Failing only nodes outside this set deletes only edges no queried
    /// path used, so every route, and the whole assignment, stays the same
    /// (the greedy adversary's pruning rule, `traffic/adversary.h`).
    std::vector<std::uint8_t> on_queried_path;

    double pair_delivered(int a, int b) const
    {
        return pair_delivered_gbps[static_cast<std::size_t>(a) *
                                       static_cast<std::size_t>(n_stations) +
                                   static_cast<std::size_t>(b)];
    }
    int n_stations = 0;
};

/// Assign `matrix` over `snapshot` (matrix.n_stations must equal
/// snapshot.n_ground, with n_stations^2 finite, non-negative demands):
/// per round, one Dijkstra tree per source gateway that is still owed
/// demand. Every link's load stays within its capacity and every pair's
/// delivered flow within its demand.
flow_result assign_flows(const lsn::network_snapshot& snapshot,
                         const traffic_matrix& matrix,
                         const capacity_options& options = {});

} // namespace ssplane::traffic

#endif // SSPLANE_TRAFFIC_FLOW_ASSIGNMENT_H
