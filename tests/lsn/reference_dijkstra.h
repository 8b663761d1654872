// Binary-heap Dijkstra, test-side only.
//
// The independent reference of the routing tests: the textbook lazy-deletion
// Dijkstra on a `std::priority_queue` of (latency, node) pairs under
// `std::greater<>`, which pops in (latency, node id) order. `lsn::
// single_source_routes` runs the same relaxation on the radix
// `monotone_queue`; its whole `latency_s` and `prev` arrays must equal this
// reference bit for bit, full and bounded passes alike, so a slip in the
// queue's tie order (which decides the predecessor of every equal-latency
// node) fails the tests instead of matching itself.
#ifndef SSPLANE_TESTS_LSN_REFERENCE_DIJKSTRA_H
#define SSPLANE_TESTS_LSN_REFERENCE_DIJKSTRA_H

#include <optional>
#include <span>

#include "lsn/routing.h"

namespace ssplane::lsn {

/// `single_source_routes` on the binary heap: the full pass without
/// `targets`, else the pass bounded to them; a non-empty `link_cost_s`
/// replaces the link latencies. No counters, no input checks beyond the
/// node indices.
route_tree reference_dijkstra(const network_snapshot& snapshot, int src_node,
                              std::optional<std::span<const int>> targets = std::nullopt,
                              std::span<const double> link_cost_s = {});

} // namespace ssplane::lsn

#endif // SSPLANE_TESTS_LSN_REFERENCE_DIJKSTRA_H
