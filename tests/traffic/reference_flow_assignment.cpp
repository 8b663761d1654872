#include "reference_flow_assignment.h"

#include <algorithm>
#include <limits>

#include "../lsn/reference_dijkstra.h"

namespace ssplane::traffic {

reference_flows reference_assign_flows(const lsn::network_snapshot& snapshot,
                                       const traffic_matrix& matrix,
                                       const capacity_options& options)
{
    constexpr double flow_eps_gbps = 1e-9;
    constexpr double inf = std::numeric_limits<double>::infinity();
    const int n = matrix.n_stations;
    const auto at = [n](std::vector<double>& m, int a, int b) -> double& {
        return m[static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(b)];
    };

    std::vector<double> capacity(snapshot.links.size());
    for (std::size_t id = 0; id < capacity.size(); ++id)
        capacity[id] = snapshot.links[id].b >= snapshot.n_satellites
                           ? options.uplink_capacity_gbps
                           : options.isl_capacity_gbps;
    reference_flows out;
    out.link_load_gbps.assign(snapshot.links.size(), 0.0);
    out.pair_delivered_gbps.assign(matrix.demand_gbps.size(), 0.0);
    out.on_queried_path.assign(static_cast<std::size_t>(snapshot.n_nodes()), 0);
    auto& load = out.link_load_gbps;

    std::vector<double> remaining(matrix.demand_gbps);
    double total_remaining = 0.0;
    for (int a = 0; a + 1 < n; ++a)
        for (int b = a + 1; b < n; ++b) total_remaining += at(remaining, a, b);

    std::vector<double> cost(snapshot.links.size());
    for (int round = 0; round < options.k_rounds && total_remaining > flow_eps_gbps;
         ++round) {
        double round_flow = 0.0;
        for (std::size_t id = 0; id < cost.size(); ++id)
            cost[id] = capacity[id] - load[id] <= flow_eps_gbps
                           ? inf
                           : snapshot.links[id].latency_s *
                                 (1.0 + congestion_penalty * load[id] / capacity[id]);
        for (int a = 0; a + 1 < n; ++a) {
            std::vector<int> owed;
            for (int b = a + 1; b < n; ++b)
                if (at(remaining, a, b) > flow_eps_gbps) owed.push_back(b);
            if (owed.empty()) continue;
            std::vector<int> targets;
            for (const int g : owed) targets.push_back(snapshot.ground_node(g));
            const auto tree = lsn::reference_dijkstra(
                snapshot, snapshot.ground_node(a), std::span<const int>(targets), cost);
            for (const int b : owed) {
                const auto path = tree.path_to(snapshot.ground_node(b));
                for (const int v : path) out.on_queried_path[static_cast<std::size_t>(v)] = 1;
                if (path.size() < 2) continue;
                std::vector<std::size_t> hops;
                double bottleneck = inf;
                double path_latency_s = 0.0;
                for (std::size_t i = 1; i < path.size(); ++i) {
                    const auto id =
                        static_cast<std::size_t>(snapshot.link_between(path[i - 1], path[i]));
                    hops.push_back(id);
                    bottleneck = std::min(bottleneck, capacity[id] - load[id]);
                    path_latency_s += snapshot.links[id].latency_s;
                }
                double& pair_remaining = at(remaining, a, b);
                const double flow = std::min(pair_remaining, bottleneck);
                if (flow <= flow_eps_gbps) continue;
                for (const auto id : hops) load[id] += flow;
                out.latency_flow_sum_gbps_s += flow * path_latency_s;
                pair_remaining -= flow;
                total_remaining -= flow;
                out.delivered_gbps += flow;
                round_flow += flow;
                at(out.pair_delivered_gbps, a, b) += flow;
                at(out.pair_delivered_gbps, b, a) += flow;
            }
        }
        if (round_flow <= flow_eps_gbps) break;
    }
    return out;
}

} // namespace ssplane::traffic
