// Capacity-aware multipath flow assignment over one network snapshot.
//
// Greedy k-round water-filling: every round freezes a congestion-penalized
// latency cost per snapshot link id (infinite once saturated), builds one
// `lsn::router` under those costs, queries it once per *source* gateway `a`
// (stopping once the gateways b > a still owed more than 1e-9 Gbps are
// settled), and routes each pair's remaining demand along its tree path up
// to the path's bottleneck residual capacity.
// Demand that does not fit spills to the next round, where saturated links
// have dropped out and loaded links weigh more — the k rounds therefore
// realize k-shortest-path splitting without per-pair re-Dijkstra. Pair
// order is fixed (a < b, row order), so results are deterministic. An
// assignment reports delivered totals, per-pair flows and per-link loads;
// utilization statistics are the caller's to draw from the loads (the
// traffic sweep does, per step), so the adversary's trials pay for none.
//
// Two exact shortcuts keep trees out of the loop without moving a bit:
//   * a pair whose gateways the round's finite-cost links do not join is
//     retired: its tree path would be empty now and, loads only growing,
//     in every later round. Its demand stays owed (and counted in the
//     delivered fraction and the round cap); it just stops asking for a
//     tree, and a source with no pair left runs none;
//   * an assignment may replay a base assignment's `route_record` when its
//     snapshot is the base's with more satellites failed (`route_replay`).
#ifndef SSPLANE_TRAFFIC_FLOW_ASSIGNMENT_H
#define SSPLANE_TRAFFIC_FLOW_ASSIGNMENT_H

#include <cstdint>
#include <span>
#include <vector>

#include "lsn/topology.h"
#include "traffic/traffic_matrix.h"

namespace ssplane::traffic {

/// Weight multiplier slope on utilization: a round weighs each link at
/// latency * (1 + congestion_penalty * load/capacity).
inline constexpr double congestion_penalty = 4.0;

/// Link capacities and assignment knobs.
struct capacity_options {
    double isl_capacity_gbps = 20.0;    ///< Per inter-satellite link.
    double uplink_capacity_gbps = 40.0; ///< Per ground<->satellite link.
    int k_rounds = 4;                   ///< Water-filling rounds (path diversity).

    bool operator==(const capacity_options&) const = default;
};

/// Reject degenerate capacity knobs — non-positive or non-finite link
/// capacities or `k_rounds < 1` — with a clear `contract_violation`
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

/// The trees one assignment ran, in loop order (round-major, then source
/// gateway): per tree the gateways b > source it was asked for — the
/// source's pairs still owed and not retired, so each is reachable — and
/// each one's queried node path, whether or not it carried flow. The nodes
/// it lists are the assignment's queried set: failing only satellites
/// outside it deletes only links no queried path used, so every route, and
/// the whole assignment, stays the same (the greedy adversary's pruning
/// rule, `traffic/adversary.h`). It also keeps the demands and options the
/// assignment ran under, the replay precondition (`route_replay`).
struct route_record {
    struct tree {
        int round = 0;
        int source = 0;       ///< Source gateway index.
        int first_target = 0; ///< Index of its first owed gateway in `owed`.
        int n_targets = 0;

        bool operator==(const tree&) const = default;
    };
    std::vector<tree> trees;
    std::vector<int> owed;       ///< Owed gateway indices, tree after tree.
    std::vector<int> path_begin; ///< Per `owed` entry its path's start in `nodes`, + end.
    std::vector<int> nodes;      ///< Every queried path, concatenated.
    std::vector<double> demand_gbps;
    capacity_options options;

    std::span<const int> owed_of(const tree& t) const
    {
        return std::span<const int>(owed).subspan(static_cast<std::size_t>(t.first_target),
                                                  static_cast<std::size_t>(t.n_targets));
    }
    /// The queried path of owed entry `i` (an index into `owed`).
    std::span<const int> path(std::size_t i) const
    {
        const auto begin = static_cast<std::size_t>(path_begin[i]);
        return std::span<const int>(nodes).subspan(
            begin, static_cast<std::size_t>(path_begin[i + 1]) - begin);
    }

    bool operator==(const route_record&) const = default;
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
    std::vector<double> pair_delivered_gbps; ///< Row-major symmetric n x n.
    std::vector<link_load> links; ///< Per-link loads by link id after assignment.
    route_record routes; ///< The trees the assignment ran or replayed.

    double pair_delivered(int a, int b) const
    {
        return pair_delivered_gbps[static_cast<std::size_t>(a) *
                                       static_cast<std::size_t>(n_stations) +
                                   static_cast<std::size_t>(b)];
    }
    int n_stations = 0;
};

/// A base assignment for `assign_flows` to replay: its route record and the
/// failure masks (one entry per satellite) its snapshot and the replaying
/// assignment's snapshot were cut under, both from the same step's links by
/// the one masking rule (`lsn::sweep_geometry::snapshot`).
struct route_replay {
    const route_record* base = nullptr; ///< None: every tree runs.
    std::span<const std::uint8_t> base_mask;
    std::span<const std::uint8_t> mask;
};

/// Assign `matrix` over `snapshot` (matrix.n_stations must equal
/// snapshot.n_ground, with n_stations^2 finite, non-negative demands):
/// per round, one Dijkstra tree per source gateway that is still owed
/// demand by a pair its cost-finite links can join. Every link's load
/// stays within its capacity and every pair's delivered flow within its
/// demand. Retired pairs count `traffic.assign.retired_pairs`, once each.
///
/// With `replay.base`, the assignment walks the base's trees in loop order
/// and takes a tree's paths from the record instead of running Dijkstra
/// while no earlier round has diverged, the source owes exactly the
/// recorded gateways and no recorded path crosses a satellite `replay.mask`
/// fails. The first tree that fails a test (a recorded tree whose source
/// now owes nothing included) diverges its round: later sources of that
/// round may still reuse, since a round's costs are frozen at its start,
/// and from the next round on every tree runs. Up to the divergence the
/// loads on every surviving link equal the base's, so the costs do, and a
/// mask only deletes links: nodes settle in (latency, node id) order and
/// relax on strictly shorter latencies, so every path the base queried
/// that avoids the deleted links is the path a fresh tree finds. The result
/// therefore equals `assign_flows(snapshot, matrix, options)` in every
/// field, record included; `traffic.adversary.reused_trees` counts the
/// reused trees. Precondition, checked (`contract_violation`): `mask`
/// contains `base_mask`, and the base ran under an equal matrix and equal
/// options.
flow_result assign_flows(const lsn::network_snapshot& snapshot,
                         const traffic_matrix& matrix,
                         const capacity_options& options = {},
                         const route_replay& replay = {});

} // namespace ssplane::traffic

#endif // SSPLANE_TRAFFIC_FLOW_ASSIGNMENT_H
