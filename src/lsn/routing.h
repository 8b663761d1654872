// Shortest-latency routing over network snapshots: one `router` per
// (snapshot, link costs) serves every query in the stack. The scenario
// sweep builds one per step and reads each gateway's latencies to the
// gateways after it; the traffic engine builds one per water-filling round,
// whose congestion costs are frozen, retires the owed pairs it finds
// unjoined, and appends each owed gateway's path to its route record.
//
// The router contracts every zero-cost link. The SS design stacks several
// planes at one LTAN, all at phase 0, so stacked satellites share a
// position and the ISLs between them have zero latency: network_day's 3250
// satellites sit at 775 positions, and 2475 of a snapshot's 6592 links are
// such twins. A Dijkstra pass reaches every twin at its partner's latency,
// so the router unites the zero-cost links into components (3262 nodes →
// 787 at network_day's epoch), keeps the least positive cost between
// neighbouring components and runs Dijkstra over components. Each target's
// node path is then rebuilt with the predecessor rule that node-level
// Dijkstra's pop order implies (below), so latencies and paths equal the
// node-level pass bit for bit. Staggering the stacked planes' phases would
// remove the twins, but that changes the design and every output.
#ifndef SSPLANE_LSN_ROUTING_H
#define SSPLANE_LSN_ROUTING_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lsn/topology.h"

namespace ssplane::lsn {

/// Dijkstra over the components that a snapshot's zero-cost links join.
///
/// Built once per (snapshot, link costs): a non-empty `link_cost_s` (one
/// entry per link id) replaces the link latencies, and an infinite cost is
/// a link that is not there. A negative or NaN cost, or latency, throws
/// `contract_violation` at construction. The snapshot must outlive the
/// router; the costs are copied.
///
/// `route(src, targets)` settles components in latency order from an
/// indexed 4-ary min-heap and stops once every target's component is
/// settled and so is every component at that last latency. Latencies are
/// exact: a zero-cost link adds nothing, and the least cost between two
/// components gives the least sum. The heap compares latencies only, so
/// the components of one latency settle in no set order. Nothing reads that
/// order: the stop rule settles the whole last latency, and the paths
/// replay each latency's pop order from node ids. `path_to` rebuilds the
/// node path that node-level Dijkstra — nodes settled in (latency, node id)
/// order, an edge relaxed only on a strictly shorter latency — would
/// return: the
/// predecessor of v is the neighbour u with fl(dist(u) + c) == dist(v) that
/// pops first, which is
///   * the u with the least dist(u) below dist(v);
///   * among several at that dist, the first in their key's pop order;
///   * when there is none, the member of v's own key that first reached it.
/// A key's pop order is a heap popping the lowest node id first, seeded with
/// the members that a lower key reaches exactly (at key 0, the source).
/// Each pop reaches the unreached members joined to it by a link with
/// fl(key + c) == key: a zero cost, or one so small that the sum absorbs it.
///
/// `connected(a, b)` answers whether finite-cost links join two nodes,
/// which is whether a query from one reaches the other; it is one
/// union-find over the components, taken when the router is built.
///
/// Per-query state lives in the router, stamped rather than cleared, so a
/// router serves one thread at a time. `lsn.dijkstra.runs` counts queries,
/// `lsn.dijkstra.settled` settled components, `lsn.router.builds` routers
/// and `lsn.router.components` their components.
class router {
public:
    explicit router(const network_snapshot& snapshot,
                    std::span<const double> link_cost_s = {});
    /// A temporary snapshot would dangle.
    router(const network_snapshot&&, std::span<const double> = {}) = delete;

    int n_components() const noexcept { return static_cast<int>(member_begin_.size()) - 1; }

    /// One query from `src_node`, bounded to `targets` (duplicates, the
    /// source itself and unreachable nodes may be listed; an unreachable
    /// target runs the query until the source's side is exhausted).
    void route(int src_node, std::span<const int> targets);

    /// Latency of a target of the last query; infinity when unreachable.
    double latency_s(int target) const;

    /// Node indices from the last query's source to `target`, one of its
    /// targets; empty when unreachable.
    std::vector<int> path_to(int target);

    /// `path_to(target)` appended to `path`: nothing when unreachable.
    void append_path(int target, std::vector<int>& path);

    /// True when finite-cost links join nodes `a` and `b`.
    bool connected(int a, int b) const;

private:
    struct hop {
        int to = 0;        ///< Neighbour component.
        double cost = 0.0; ///< Least positive cost of a link into it.
    };

    double dist_of(int node) const;
    int predecessor(int node);
    void order_key(int component);
    void next_stamp();
    void sift_up(std::size_t slot, int component);
    void pop_least();

    const network_snapshot* snapshot_;
    std::vector<double> arc_cost_;   ///< Per CSR arc, its link's cost.
    std::vector<int> component_;     ///< Per node.
    std::vector<int> member_begin_;  ///< Per component its first member, + end.
    std::vector<int> members_;       ///< Node ids, ascending within a component.
    std::vector<int> hop_begin_;     ///< Per component its first hop, + end.
    std::vector<hop> hops_;
    std::vector<int> group_;         ///< Per component, its finite-cost group.

    // Per query, valid where the stamp equals `stamp_`.
    std::uint32_t stamp_ = 0;
    int source_ = -1;
    std::vector<std::uint32_t> reached_; ///< Per component: `dist_` is set.
    std::vector<std::uint32_t> wanted_;  ///< Per component: holds a target.
    std::vector<double> dist_;           ///< Per component.
    std::vector<int> queue_;             ///< Reached, unsettled components: a heap on `dist_`.
    std::vector<int> queue_slot_;        ///< Per queued component, its index in `queue_`.
    std::vector<int> position_;          ///< Per settled component, its index in `settled_`.
    std::vector<int> settled_;           ///< Components in settle order.
    std::vector<std::uint32_t> target_;  ///< Per node: a target of the query.
    std::vector<std::uint32_t> ordered_; ///< Per node: its key's pop order is known.
    std::vector<int> pop_rank_;          ///< Per ordered node, its place in its key.
    std::vector<int> reached_from_;      ///< Per ordered node: its in-key reacher, -1 if seeded.
    std::vector<int> key_heap_;          ///< `order_key`'s node ids, lowest on top.
};

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_ROUTING_H
