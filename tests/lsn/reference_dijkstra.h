// Binary-heap Dijkstra, test-side only.
//
// The independent reference of the routing tests: the textbook node-level,
// lazy-deletion Dijkstra on a `std::priority_queue` of (latency, node)
// pairs under `std::greater<>`, which pops in (latency, node id) order and
// relaxes an edge only on a strictly shorter latency. `lsn::router` runs
// Dijkstra over zero-cost components instead and rebuilds node paths from
// the pop order; every target's latency and node path must equal this
// reference bit for bit, so a slip in the rebuilt tie order (which decides
// the predecessor of every equal-latency node) fails the tests instead of
// matching itself.
#ifndef SSPLANE_TESTS_LSN_REFERENCE_DIJKSTRA_H
#define SSPLANE_TESTS_LSN_REFERENCE_DIJKSTRA_H

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "lsn/topology.h"
#include "util/expects.h"

namespace ssplane::lsn {

/// Shortest-path tree of one reference pass: distances plus predecessors.
struct route_tree {
    int source = 0;
    std::vector<double> latency_s; ///< Infinity = unreachable (or unsettled).
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

/// Node-level Dijkstra on the binary heap: the full pass without `targets`,
/// else the pass that stops once every listed node is settled; a non-empty
/// `link_cost_s` replaces the link latencies (+inf never relaxes). No
/// counters, no input checks beyond the node indices.
route_tree reference_dijkstra(const network_snapshot& snapshot, int src_node,
                              std::optional<std::span<const int>> targets = std::nullopt,
                              std::span<const double> link_cost_s = {});

} // namespace ssplane::lsn

#endif // SSPLANE_TESTS_LSN_REFERENCE_DIJKSTRA_H
