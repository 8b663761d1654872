#include "reference_dijkstra.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "util/expects.h"

namespace ssplane::lsn {

std::vector<int> route_tree::path_to(int node) const
{
    if (!reachable(node)) return {};
    std::vector<int> path;
    for (int v = node; v != -1; v = prev[static_cast<std::size_t>(v)])
        path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
}

route_tree reference_dijkstra(const network_snapshot& snapshot, int src_node,
                              std::optional<std::span<const int>> targets,
                              std::span<const double> link_cost_s)
{
    const auto n = static_cast<std::size_t>(snapshot.n_nodes());
    expects(src_node >= 0 && static_cast<std::size_t>(src_node) < n, "bad source node");
    route_tree tree;
    tree.source = src_node;
    auto& dist = tree.latency_s;
    auto& prev = tree.prev;
    dist.assign(n, std::numeric_limits<double>::infinity());
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

    using queue_item = std::pair<double, int>; // (latency, node)
    std::priority_queue<queue_item, std::vector<queue_item>, std::greater<>> queue;
    dist[static_cast<std::size_t>(src_node)] = 0.0;
    if (!targets || unsettled_targets > 0) queue.emplace(0.0, src_node);
    while (!queue.empty()) {
        const auto [d, u] = queue.top();
        queue.pop();
        if (d > dist[static_cast<std::size_t>(u)]) continue;
        if (targets && wanted[static_cast<std::size_t>(u)] != 0 && --unsettled_targets == 0)
            break;
        for (const auto& arc : snapshot.arcs_of(u)) {
            const auto id = static_cast<std::size_t>(arc.link);
            const double nd =
                d + (link_cost_s.empty() ? snapshot.links[id].latency_s : link_cost_s[id]);
            if (nd < dist[static_cast<std::size_t>(arc.to)]) {
                dist[static_cast<std::size_t>(arc.to)] = nd;
                prev[static_cast<std::size_t>(arc.to)] = u;
                queue.emplace(nd, arc.to);
            }
        }
    }
    return tree;
}

} // namespace ssplane::lsn
