// Shortest-latency routing over network snapshots: one Dijkstra primitive,
// `single_source_routes`, walks the CSR rows and serves every query in the
// stack. The scenario sweep reads each source's `latency_s` row for its
// all-pairs matrix; the traffic engine walks `path_to` on trees bounded to
// the gateways it still owes demand, under per-link congestion costs.
#ifndef SSPLANE_LSN_ROUTING_H
#define SSPLANE_LSN_ROUTING_H

#include <limits>
#include <span>
#include <vector>

#include "lsn/topology.h"
#include "util/expects.h"

namespace ssplane::lsn {

/// Shortest-path tree of one Dijkstra pass: distances plus predecessors, so
/// callers needing the actual hops to many destinations (the traffic
/// engine's flow assignment) pay one pass per source instead of one
/// point-to-point query per pair.
struct route_tree {
    int source = 0;
    std::vector<double> latency_s; ///< Infinity = unreachable.
    std::vector<int> prev;         ///< Predecessor node; -1 at source/unreachable.

    bool reachable(int node) const
    {
        expects(node >= 0 && static_cast<std::size_t>(node) < latency_s.size(),
                "bad node index");
        return latency_s[static_cast<std::size_t>(node)] !=
               std::numeric_limits<double>::infinity();
    }

    /// Node indices from the source to `node`; empty when unreachable.
    std::vector<int> path_to(int node) const;
};

/// Full Dijkstra pass from `src_node` keeping the predecessor tree of every
/// node the source reaches. Link latencies are non-negative (the snapshot
/// factory checks), which the pass's monotone queue relies on.
route_tree single_source_routes(const network_snapshot& snapshot, int src_node);

/// Target-bounded pass: stops once every node listed in `targets` is
/// settled (duplicates and the source itself may be listed; an unreachable
/// target runs the pass until the source's component is exhausted). Nodes
/// settle in (latency, node id) order and an edge relaxes only on a
/// strictly shorter latency, so a settled node's latency and predecessor
/// never change afterwards: `path_to` and `latency_s` of every listed
/// target equal the full pass's bit for bit, while unlisted entries may be
/// unsettled upper bounds. The traffic engine asks each source tree only
/// for the gateways that are still owed demand. A non-empty `link_cost_s`
/// (one entry per link id) replaces the link latencies; an infinite cost
/// never relaxes, exactly as if the link were not in the snapshot. A
/// negative or NaN cost throws `contract_violation` before the pass.
route_tree single_source_routes(const network_snapshot& snapshot, int src_node,
                                std::span<const int> targets,
                                std::span<const double> link_cost_s = {});

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_ROUTING_H
