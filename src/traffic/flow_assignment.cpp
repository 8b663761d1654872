#include "traffic/flow_assignment.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "lsn/routing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"
#include "util/stats.h"

namespace ssplane::traffic {

namespace {

constexpr double flow_eps_gbps = 1e-9;
constexpr double inf = std::numeric_limits<double>::infinity();

/// Route as much of `remaining` as fits along `path` (node indices),
/// bounded by the bottleneck residual capacity. Each hop's link id is the
/// one in its tail node's CSR row. Returns the flow placed.
double place_flow_on_path(const lsn::network_snapshot& snapshot,
                          const std::vector<int>& path, double remaining,
                          std::vector<link_load>& loads, double& latency_flow_sum_s)
{
    if (path.size() < 2) return 0.0;
    const auto hop = [&](std::size_t i) {
        return static_cast<std::size_t>(snapshot.link_between(path[i - 1], path[i]));
    };
    double bottleneck = inf;
    double path_latency_s = 0.0;
    for (std::size_t i = 1; i < path.size(); ++i) {
        const auto id = hop(i);
        bottleneck = std::min(bottleneck, loads[id].capacity_gbps - loads[id].load_gbps);
        path_latency_s += snapshot.links[id].latency_s;
    }
    const double flow = std::min(remaining, bottleneck);
    if (flow <= flow_eps_gbps) return 0.0;
    for (std::size_t i = 1; i < path.size(); ++i) loads[hop(i)].load_gbps += flow;
    latency_flow_sum_s += flow * path_latency_s;
    return flow;
}

/// Reduce link loads and delivered totals into the result metrics.
flow_result finalize(const traffic_matrix& matrix, std::vector<link_load> loads,
                     std::vector<double> pair_delivered,
                     std::vector<std::uint8_t> on_queried_path, double offered,
                     double delivered, double latency_flow_sum_s,
                     const capacity_options& options)
{
    flow_result result;
    result.on_queried_path = std::move(on_queried_path);
    result.n_stations = matrix.n_stations;
    result.offered_gbps = offered;
    result.delivered_gbps = delivered;
    result.delivered_fraction = offered > 0.0 ? delivered / offered : 1.0;
    result.latency_flow_sum_gbps_s = latency_flow_sum_s;
    result.mean_path_latency_ms =
        delivered > 0.0 ? latency_flow_sum_s / delivered * 1000.0 : 0.0;
    result.pair_delivered_gbps = std::move(pair_delivered);
    result.links = std::move(loads);
    result.n_links = static_cast<int>(result.links.size());

    std::vector<double> utilization;
    utilization.reserve(result.links.size());
    for (const auto& link : result.links) utilization.push_back(link.utilization());
    std::sort(utilization.begin(), utilization.end());
    result.mean_utilization = mean(utilization);
    result.p95_utilization = percentile_sorted(utilization, 95.0);
    result.max_utilization = utilization.empty() ? 0.0 : utilization.back();
    result.congested_links = static_cast<int>(std::count_if(
        utilization.begin(), utilization.end(),
        [&](double u) { return u >= options.congested_threshold; }));
    return result;
}

} // namespace

void validate(const capacity_options& options)
{
    expects(std::isfinite(options.isl_capacity_gbps) &&
                options.isl_capacity_gbps > 0.0,
            "ISL capacity must be finite and positive");
    expects(std::isfinite(options.uplink_capacity_gbps) &&
                options.uplink_capacity_gbps > 0.0,
            "uplink capacity must be finite and positive");
    expects(options.k_rounds >= 1, "need at least one assignment round");
    expects(std::isfinite(options.congestion_penalty) &&
                options.congestion_penalty >= 0.0,
            "congestion penalty must be finite and non-negative");
    expects(options.congested_threshold > 0.0,
            "congested threshold must be positive");
}

flow_result assign_flows(const lsn::network_snapshot& snapshot,
                         const traffic_matrix& matrix,
                         const capacity_options& options)
{
    OBS_SPAN("traffic.assign");
    OBS_COUNT("traffic.assign.calls");
    expects(matrix.n_stations == snapshot.n_ground,
            "traffic matrix does not match snapshot ground set");
    validate(options);

    const int n = matrix.n_stations;
    expects(matrix.demand_gbps.size() ==
                static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
            "traffic matrix must hold n_stations^2 entries");
    for (const double demand : matrix.demand_gbps)
        expects(std::isfinite(demand) && demand >= 0.0,
                "traffic demand must be finite and non-negative");

    // Per-link state, indexed by snapshot link id.
    std::vector<link_load> loads(snapshot.links.size());
    for (std::size_t id = 0; id < loads.size(); ++id)
        loads[id].capacity_gbps = snapshot.links[id].b >= snapshot.n_satellites
                                      ? options.uplink_capacity_gbps
                                      : options.isl_capacity_gbps;
    std::vector<double> cost(snapshot.links.size());

    std::vector<double> remaining(matrix.demand_gbps);
    std::vector<double> pair_delivered(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
    const auto at = [n](std::vector<double>& m, int a, int b) -> double& {
        return m[static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(b)];
    };

    double offered = 0.0;
    for (int a = 0; a + 1 < n; ++a)
        for (int b = a + 1; b < n; ++b) offered += at(remaining, a, b);

    double delivered = 0.0;
    double latency_flow_sum_s = 0.0;
    double total_remaining = offered;
    std::vector<std::uint8_t> on_queried_path(
        static_cast<std::size_t>(snapshot.n_nodes()), 0);
    std::vector<int> owed;
    std::vector<int> targets;
    int round = 0;
    for (; round < options.k_rounds && total_remaining > flow_eps_gbps; ++round) {
        OBS_COUNT("traffic.assign.rounds");
        double round_flow = 0.0;
        // Freeze this round's congestion costs: saturated links drop out,
        // loaded links weigh latency * (1 + penalty * utilization).
        for (std::size_t id = 0; id < cost.size(); ++id)
            cost[id] = loads[id].capacity_gbps - loads[id].load_gbps <= flow_eps_gbps
                           ? inf
                           : snapshot.links[id].latency_s *
                                 (1.0 + options.congestion_penalty *
                                            loads[id].utilization());
        for (int a = 0; a + 1 < n; ++a) {
            // Placing flow on one pair never changes another pair's
            // remainder, so this list is exactly the pairs of source `a`
            // served this round. An exhausted source costs nothing; the
            // others get one tree that stops once their owed gateways are
            // settled and serves every one of those pairs.
            owed.clear();
            for (int b = a + 1; b < n; ++b)
                if (at(remaining, a, b) > flow_eps_gbps) owed.push_back(b);
            if (owed.empty()) continue;
            targets.clear();
            for (const int g : owed) targets.push_back(snapshot.ground_node(g));
            const auto tree = lsn::single_source_routes(
                snapshot, snapshot.ground_node(a), targets, cost);
            for (const int b : owed) {
                double& pair_remaining = at(remaining, a, b);
                const auto path = tree.path_to(snapshot.ground_node(b));
                for (const int v : path) on_queried_path[static_cast<std::size_t>(v)] = 1;
                const double flow = place_flow_on_path(snapshot, path, pair_remaining,
                                                       loads, latency_flow_sum_s);
                if (flow <= 0.0) continue;
                pair_remaining -= flow;
                total_remaining -= flow;
                delivered += flow;
                round_flow += flow;
                at(pair_delivered, a, b) += flow;
                at(pair_delivered, b, a) += flow;
            }
        }
        // A zero-yield round changed no load, so every later round would
        // recompute identical costs and trees to place nothing: stop.
        if (round_flow <= flow_eps_gbps) break;
    }
    // Out of rounds, the last one placing flow, with demand still owed.
    if (round == options.k_rounds && total_remaining > flow_eps_gbps)
        OBS_COUNT("traffic.assign.round_cap_hits");
    return finalize(matrix, std::move(loads), std::move(pair_delivered),
                    std::move(on_queried_path), offered, delivered,
                    latency_flow_sum_s, options);
}

} // namespace ssplane::traffic
