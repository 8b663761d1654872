// Delay-tolerant bulk-transfer routing over the time-expanded graph.
//
// A bulk request is a volume (Gb) released at a gateway at some time that
// must reach another gateway by a deadline. The solver is a deterministic
// successive-shortest-augmentation greedy: requests are served in input
// order (input order is priority order); each request repeatedly routes as
// much volume as fits along its current *earliest-completion* path — an
// earliest-arrival Dijkstra over the residual time-expanded graph, where
// transmission arcs cost their latency and storage arcs wait for the next
// step — until the request is fully routed, cut off from the destination,
// or out of deadline. Residual capacities are shared across requests and
// per (link, step), so later requests see exactly what earlier ones left.
//
// The per-step replication baseline asks how much of this volume the
// snapshot greedy could deliver with no onboard buffering: it replays
// `traffic::assign_flows` independently per step on the remaining volumes
// (ground gateways still hold undelivered data — that is a property of
// gateways, not of the network). It shares each step among the requests
// active in it, so once requests compete it is no lower bound on the
// input-order solver (`BulkRouter.PriorityOrderCanLeaveStoreAndForwardBelowTheFloor`).
#ifndef SSPLANE_TEMPO_BULK_ROUTER_H
#define SSPLANE_TEMPO_BULK_ROUTER_H

#include <span>

#include "tempo/time_expanded_graph.h"

namespace ssplane::tempo {

/// One delay-tolerant bulk transfer: move `volume_gb` from `src_ground` to
/// `dst_ground`, releasable from `release_s` and due by `deadline_s` (both
/// offsets from the sweep epoch, like the graph's step offsets).
struct bulk_transfer_request {
    int src_ground = 0;
    int dst_ground = 0;
    double volume_gb = 0.0;
    double release_s = 0.0;
    double deadline_s = 0.0;
};

/// Reject a request whose gateways are out of [0, n_ground) or equal, whose
/// volume is not finite and positive, or whose window is not
/// 0 <= release_s < deadline_s, with a clear `contract_violation`. Both
/// routers call it.
void validate(std::span<const bulk_transfer_request> requests, int n_ground);

/// Outcome slot of one request.
struct bulk_transfer_result {
    double volume_gb = 0.0;    ///< Requested volume.
    double delivered_gb = 0.0; ///< Volume at the destination by the deadline.
    double delivered_fraction = 0.0;
    /// Step-end time of the last augmenting path [s offset]; successive
    /// earliest-completion paths never finish earlier than their
    /// predecessors, so this is when the delivered volume is complete.
    /// 0 when nothing was delivered.
    double completion_s = 0.0;
    int n_paths = 0; ///< Augmenting paths used.
    bool complete = false;
};

/// Aggregate routing outcome: per-request slots plus totals and the
/// buffer high-water marks the store-and-forward paths needed.
struct bulk_route_result {
    std::vector<bulk_transfer_result> requests;
    double offered_gb = 0.0;
    double delivered_gb = 0.0;
    double delivered_fraction = 1.0; ///< delivered/offered; 1 when offered = 0.
    double max_buffer_gb = 0.0;      ///< Largest per-satellite high-water mark.
    std::vector<double> sat_buffer_high_water_gb;
};

/// Route `requests` (in order) over the residual capacities of `graph`.
/// Mutates the graph's slot loads — call `graph.reset_loads()` to re-route
/// from scratch. Deterministic: serial over requests, Dijkstra ties broken
/// by time-node id.
bulk_route_result route_bulk_transfers(time_expanded_graph& graph,
                                       std::span<const bulk_transfer_request> requests);

/// Per-epoch replication floor: per step, offer every active request's
/// remaining volume to `traffic::assign_flows` on that step's snapshot
/// alone — the snapshot greedy replayed per epoch, with no
/// store-and-forward (`bm_bulk_route` vs `bm_bulk_route_per_step_floor`).
/// Per-pair delivered volume is attributed to that pair's active requests
/// in request order. `offsets_s`/`options` must describe the same grid the
/// time-expanded contender uses so the two see identical capacity.
bulk_route_result route_bulk_transfers_per_step_baseline(
    std::span<const lsn::network_snapshot> snapshots,
    std::span<const double> offsets_s,
    std::span<const bulk_transfer_request> requests,
    const bulk_route_options& options = {});

} // namespace ssplane::tempo

#endif // SSPLANE_TEMPO_BULK_ROUTER_H
