#include "lsn/routing.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "lsn/monotone_queue.h"
#include "obs/metrics.h"
#include "util/expects.h"

namespace ssplane::lsn {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Dijkstra core of both `single_source_routes` forms over the CSR rows; a
/// link weighs `cost[id]`, or its latency when `cost` is empty. Weights
/// are non-negative, so the monotone queue applies: it pops (distance,
/// node) pairs lexicographically, and an edge relaxes only on a strictly
/// shorter distance (never at infinite cost), so nodes settle in
/// (distance, node id) order and a settled node's distance and
/// predecessor are final. With `targets` the pass stops once every listed
/// node is settled; without, it settles every node the source reaches.
route_tree routes_from(const network_snapshot& snapshot, int src_node,
                       std::optional<std::span<const int>> targets,
                       std::span<const double> cost)
{
    const auto n = static_cast<std::size_t>(snapshot.n_nodes());
    expects(src_node >= 0 && static_cast<std::size_t>(src_node) < n,
            "bad source node");
    expects(cost.empty() || cost.size() == snapshot.links.size(),
            "need one cost per snapshot link");
    // `c >= 0` fails on NaN as on a negative cost, and passes +inf.
    bool costs_valid = true;
    for (const double c : cost) costs_valid &= c >= 0.0;
    expects(costs_valid, "link costs must be non-negative or +inf");
    // Every routing query in the stack funnels through here, so these two
    // counters are the per-campaign "how many shortest-path solves, and how
    // much of the graph each one walked" figures.
    OBS_COUNT("lsn.dijkstra.runs");
    route_tree tree;
    tree.source = src_node;
    auto& dist = tree.latency_s;
    auto& prev = tree.prev;
    dist.assign(n, inf);
    prev.assign(n, -1);

    std::vector<std::uint8_t> wanted;
    int unsettled_targets = 0;
    if (targets) {
        wanted.assign(n, 0);
        for (const int t : *targets) {
            expects(t >= 0 && static_cast<std::size_t>(t) < n, "bad target node");
            auto& flag = wanted[static_cast<std::size_t>(t)];
            unsettled_targets += flag == 0;
            flag = 1;
        }
    }

    // One queue per thread, emptied per pass: its buckets keep their
    // storage across the many passes a worker runs.
    thread_local monotone_queue queue;
    queue.clear();
    dist[static_cast<std::size_t>(src_node)] = 0.0;
    if (!targets || unsettled_targets > 0) queue.push(0.0, src_node);
    std::uint64_t settled = 0;
    while (!queue.empty()) {
        const auto [d, u] = queue.pop();
        if (d > dist[static_cast<std::size_t>(u)]) continue;
        ++settled;
        if (targets && wanted[static_cast<std::size_t>(u)] != 0 &&
            --unsettled_targets == 0)
            break;
        for (const auto& arc : snapshot.arcs_of(u)) {
            const auto id = static_cast<std::size_t>(arc.link);
            const double nd = d + (cost.empty() ? snapshot.links[id].latency_s : cost[id]);
            if (nd < dist[static_cast<std::size_t>(arc.to)]) {
                dist[static_cast<std::size_t>(arc.to)] = nd;
                prev[static_cast<std::size_t>(arc.to)] = u;
                queue.push(nd, arc.to);
            }
        }
    }
    OBS_COUNT_N("lsn.dijkstra.settled", settled);
    return tree;
}

} // namespace

std::vector<int> route_tree::path_to(int node) const
{
    if (!reachable(node)) return {};
    std::vector<int> path;
    for (int v = node; v != -1; v = prev[static_cast<std::size_t>(v)])
        path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
}

route_tree single_source_routes(const network_snapshot& snapshot, int src_node)
{
    return routes_from(snapshot, src_node, std::nullopt, {});
}

route_tree single_source_routes(const network_snapshot& snapshot, int src_node,
                                std::span<const int> targets,
                                std::span<const double> link_cost_s)
{
    return routes_from(snapshot, src_node, targets, link_cost_s);
}

} // namespace ssplane::lsn
