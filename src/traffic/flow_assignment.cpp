#include "traffic/flow_assignment.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "lsn/routing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"

namespace ssplane::traffic {

namespace {

constexpr double flow_eps_gbps = 1e-9;
constexpr double inf = std::numeric_limits<double>::infinity();

/// Route as much of `remaining` as fits along `path` (node indices),
/// bounded by the bottleneck residual capacity. Each hop's link id is the
/// one in its tail node's CSR row, looked up once into `hop_links`; a hop
/// with no link (a replayed path cut from another snapshot) throws.
/// Returns the flow placed.
double place_flow_on_path(const lsn::network_snapshot& snapshot,
                          std::span<const int> path, double remaining,
                          std::vector<link_load>& loads, double& latency_flow_sum_s,
                          std::vector<std::size_t>& hop_links)
{
    if (path.size() < 2) return 0.0;
    hop_links.clear();
    double bottleneck = inf;
    double path_latency_s = 0.0;
    for (std::size_t i = 1; i < path.size(); ++i) {
        const int link = snapshot.link_between(path[i - 1], path[i]);
        expects(link >= 0, "path hop is not a snapshot link");
        const auto id = static_cast<std::size_t>(link);
        hop_links.push_back(id);
        bottleneck = std::min(bottleneck, loads[id].capacity_gbps - loads[id].load_gbps);
        path_latency_s += snapshot.links[id].latency_s;
    }
    const double flow = std::min(remaining, bottleneck);
    if (flow <= flow_eps_gbps) return 0.0;
    for (const auto id : hop_links) loads[id].load_gbps += flow;
    latency_flow_sum_s += flow * path_latency_s;
    return flow;
}

/// The replay precondition: the replaying mask fails every satellite the
/// base's did, and the base ran under the same demands and options.
void check_replay(const route_replay& replay, const lsn::network_snapshot& snapshot,
                  const traffic_matrix& matrix, const capacity_options& options)
{
    const auto n = static_cast<std::size_t>(snapshot.n_satellites);
    expects(replay.base_mask.size() == n && replay.mask.size() == n,
            "replay masks need one entry per satellite");
    bool contains = true;
    for (std::size_t s = 0; s < n; ++s)
        contains &= replay.base_mask[s] == 0 || replay.mask[s] != 0;
    expects(contains, "replay mask must contain the base's mask");
    expects(replay.base->demand_gbps == matrix.demand_gbps &&
                replay.base->options == options,
            "replay base ran under another matrix or other options");
}

/// True when no path of `tree` crosses a satellite `mask` fails.
bool paths_avoid(const route_record& record, const route_record::tree& tree,
                 std::span<const std::uint8_t> mask)
{
    const auto first = static_cast<std::size_t>(tree.first_target);
    for (auto i = static_cast<std::size_t>(record.path_begin[first]);
         i < static_cast<std::size_t>(record.path_begin[first + tree.n_targets]); ++i) {
        const auto v = static_cast<std::size_t>(record.nodes[i]);
        if (v < mask.size() && mask[v] != 0) return false;
    }
    return true;
}

/// Gather link loads and delivered totals into the result.
flow_result finalize(const traffic_matrix& matrix, std::vector<link_load> loads,
                     std::vector<double> pair_delivered, route_record routes,
                     double offered, double delivered, double latency_flow_sum_s)
{
    flow_result result;
    result.routes = std::move(routes);
    result.n_stations = matrix.n_stations;
    result.offered_gbps = offered;
    result.delivered_gbps = delivered;
    result.delivered_fraction = offered > 0.0 ? delivered / offered : 1.0;
    result.latency_flow_sum_gbps_s = latency_flow_sum_s;
    result.mean_path_latency_ms =
        delivered > 0.0 ? latency_flow_sum_s / delivered * 1000.0 : 0.0;
    result.pair_delivered_gbps = std::move(pair_delivered);
    result.links = std::move(loads);
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
}

flow_result assign_flows(const lsn::network_snapshot& snapshot,
                         const traffic_matrix& matrix,
                         const capacity_options& options,
                         const route_replay& replay)
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
    const route_record* base = replay.base;
    if (base) check_replay(replay, snapshot, matrix, options);

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
    // Owed pairs no cost-finite path joins any more (only a < b is used).
    std::vector<std::uint8_t> retired(pair_delivered.size(), 0);
    const auto at = [n](auto& m, int a, int b) -> auto& {
        return m[static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(b)];
    };

    double offered = 0.0;
    for (int a = 0; a + 1 < n; ++a)
        for (int b = a + 1; b < n; ++b) offered += at(remaining, a, b);

    double delivered = 0.0;
    double latency_flow_sum_s = 0.0;
    double total_remaining = offered;
    route_record record;
    record.demand_gbps = matrix.demand_gbps;
    record.options = options;
    record.path_begin.push_back(0);
    std::uint64_t retired_pairs = 0;
    std::uint64_t reused_trees = 0;
    std::size_t next_recorded = 0; // the base's first tree not yet walked
    bool replaying = base != nullptr; // no earlier round has diverged

    // Record pair (a, b), whose queried path was just appended to the
    // record's nodes, and place what fits of its demand.
    double round_flow = 0.0;
    std::vector<std::size_t> hop_links;
    const auto serve = [&](int a, int b) {
        record.owed.push_back(b);
        const auto path = std::span<const int>(record.nodes).subspan(
            static_cast<std::size_t>(record.path_begin.back()));
        record.path_begin.push_back(static_cast<int>(record.nodes.size()));
        double& pair_remaining = at(remaining, a, b);
        const double flow = place_flow_on_path(snapshot, path, pair_remaining, loads,
                                               latency_flow_sum_s, hop_links);
        if (flow <= 0.0) return;
        pair_remaining -= flow;
        total_remaining -= flow;
        delivered += flow;
        round_flow += flow;
        at(pair_delivered, a, b) += flow;
        at(pair_delivered, b, a) += flow;
    };

    std::vector<int> owed;
    std::vector<int> targets;
    int round = 0;
    for (; round < options.k_rounds && total_remaining > flow_eps_gbps; ++round) {
        OBS_COUNT("traffic.assign.rounds");
        round_flow = 0.0;
        // Freeze this round's congestion costs: saturated links drop out,
        // loaded links weigh latency * (1 + penalty * utilization).
        for (std::size_t id = 0; id < cost.size(); ++id)
            cost[id] = loads[id].capacity_gbps - loads[id].load_gbps <= flow_eps_gbps
                           ? inf
                           : snapshot.links[id].latency_s *
                                 (1.0 + congestion_penalty *
                                            loads[id].utilization());
        lsn::router routes(snapshot, cost);
        // Retire every owed pair whose gateways the cost-finite links do not
        // join: no tree reaches across, and loads only grow, so a saturated
        // link never reopens and the pair stays cut off for good.
        for (int a = 0; a + 1 < n; ++a)
            for (int b = a + 1; b < n; ++b) {
                auto& cut = at(retired, a, b);
                if (cut == 0 && at(remaining, a, b) > flow_eps_gbps &&
                    !routes.connected(snapshot.ground_node(a), snapshot.ground_node(b))) {
                    cut = 1;
                    ++retired_pairs;
                }
            }
        bool diverged = false; // some tree of this round failed a replay test
        for (int a = 0; a + 1 < n; ++a) {
            // Placing flow on one pair never changes another pair's
            // remainder, so this list is exactly the pairs of source `a`
            // served this round. A source owing nothing costs nothing; the
            // others get one tree that stops once their owed gateways are
            // settled and serves every one of those pairs.
            owed.clear();
            for (int b = a + 1; b < n; ++b)
                if (at(remaining, a, b) > flow_eps_gbps && at(retired, a, b) == 0)
                    owed.push_back(b);
            // The base's tree for this (round, source), if it ran one.
            const route_record::tree* recorded = nullptr;
            if (replaying && next_recorded < base->trees.size() &&
                base->trees[next_recorded].round == round &&
                base->trees[next_recorded].source == a)
                recorded = &base->trees[next_recorded++];
            if (owed.empty()) {
                // The base ran a tree here and placed its flow; this
                // assignment owes nothing (its pairs retired): the owed
                // lists differ, and so will the loads.
                diverged |= recorded != nullptr;
                continue;
            }
            const bool reuse = recorded != nullptr &&
                               std::ranges::equal(base->owed_of(*recorded), owed) &&
                               paths_avoid(*base, *recorded, replay.mask);
            diverged |= replaying && !reuse;
            record.trees.push_back({round, a, static_cast<int>(record.owed.size()),
                                    static_cast<int>(owed.size())});
            if (reuse) {
                ++reused_trees;
                const auto first = static_cast<std::size_t>(recorded->first_target);
                for (auto i = first; i < first + static_cast<std::size_t>(recorded->n_targets);
                     ++i) {
                    const auto path = base->path(i);
                    record.nodes.insert(record.nodes.end(), path.begin(), path.end());
                    serve(a, base->owed[i]);
                }
                continue;
            }
            targets.clear();
            for (const int g : owed) targets.push_back(snapshot.ground_node(g));
            routes.route(snapshot.ground_node(a), targets);
            for (const int b : owed) {
                routes.append_path(snapshot.ground_node(b), record.nodes);
                serve(a, b);
            }
        }
        // From the round after a divergence on, the loads may differ from
        // the base's, and so may every cost: no tree is reused.
        if (diverged) replaying = false;
        // A zero-yield round changed no load, so every later round would
        // recompute identical costs and trees to place nothing: stop.
        if (round_flow <= flow_eps_gbps) break;
    }
    // Out of rounds, the last one placing flow, with demand still owed
    // (retired pairs included).
    if (round == options.k_rounds && total_remaining > flow_eps_gbps)
        OBS_COUNT("traffic.assign.round_cap_hits");
    OBS_COUNT_N("traffic.assign.retired_pairs", retired_pairs);
    if (base) OBS_COUNT_N("traffic.adversary.reused_trees", reused_trees);
    return finalize(matrix, std::move(loads), std::move(pair_delivered), std::move(record),
                    offered, delivered, latency_flow_sum_s);
}

} // namespace ssplane::traffic
