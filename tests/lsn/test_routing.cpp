#include "lsn/routing.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/design_problem.h"
#include "core/greedy_cover.h"
#include "demand/demand_model.h"
#include "demand/population.h"
#include "lsn/scenario.h"
#include "reference_dijkstra.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/rng.h"
#include "util/union_find.h"

namespace ssplane::lsn {
namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Hand-built snapshot: a small weighted graph.
network_snapshot line_graph()
{
    //  0 --1ms-- 1 --2ms-- 2 --1ms-- 3     and a slow shortcut 0 --10ms-- 3
    return make_network_snapshot(
        4, 0, {{0, 1, 0.001}, {1, 2, 0.002}, {2, 3, 0.001}, {0, 3, 0.010}});
}

/// Every node of `snap` as a target list: the full pass.
std::vector<int> every_node(const network_snapshot& snap)
{
    std::vector<int> nodes(static_cast<std::size_t>(snap.n_nodes()));
    for (int v = 0; v < snap.n_nodes(); ++v) nodes[static_cast<std::size_t>(v)] = v;
    return nodes;
}

/// One target's answer: its latency and node path.
struct route_to {
    double latency_s = inf;
    std::vector<int> path;
};

/// The query bounded to `dst` alone: the point-to-point query.
route_to point_query(const network_snapshot& snap, int src, int dst)
{
    router routes(snap);
    const std::vector<int> target{dst};
    routes.route(src, target);
    return {routes.latency_s(dst), routes.path_to(dst)};
}

/// Bit identity with the binary-heap reference bounded to the same
/// targets: every target's latency and node path. Returns how many
/// targets were compared.
int expect_reference(router& routes, const network_snapshot& snap, int src,
                     std::span<const int> targets, std::span<const double> cost = {})
{
    const auto reference = reference_dijkstra(snap, src, targets, cost);
    routes.route(src, targets);
    for (const int t : targets) {
        const auto ti = static_cast<std::size_t>(t);
        EXPECT_EQ(routes.latency_s(t), reference.latency_s[ti]) << "source " << src
                                                                << " target " << t;
        EXPECT_EQ(routes.path_to(t), reference.path_to(t)) << "source " << src
                                                           << " target " << t;
    }
    return static_cast<int>(targets.size());
}

TEST(Routing, FindsShortestPath)
{
    const auto snap = line_graph();
    router routes(snap);
    routes.route(0, every_node(snap));
    EXPECT_NEAR(routes.latency_s(3), 0.004, 1e-12);
    const auto path = routes.path_to(3);
    ASSERT_EQ(path.size(), 4u); // three hops
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), 3);
}

TEST(Routing, SourceEqualsDestination)
{
    const auto snap = line_graph();
    const auto route = point_query(snap, 2, 2);
    EXPECT_EQ(route.latency_s, 0.0);
    EXPECT_EQ(route.path, std::vector<int>{2}); // zero hops
}

TEST(Routing, UnreachableNode)
{
    const auto snap = make_network_snapshot(3, 0, {{0, 1, 0.001}});
    const auto route = point_query(snap, 0, 2);
    EXPECT_EQ(route.latency_s, inf);
    EXPECT_TRUE(route.path.empty());
}

TEST(Routing, PathEdgesExist)
{
    const auto snap = line_graph();
    const auto path = point_query(snap, 0, 2).path;
    ASSERT_FALSE(path.empty());
    for (std::size_t i = 1; i < path.size(); ++i) {
        bool edge_found = false;
        for (const auto& arc : snap.arcs_of(path[i - 1]))
            edge_found |= (arc.to == path[i]);
        EXPECT_TRUE(edge_found);
    }
}

TEST(Routing, InvalidNodesRejected)
{
    const auto snap = line_graph();
    router routes(snap);
    EXPECT_THROW(routes.latency_s(0), contract_violation); // no query yet
    const auto all = every_node(snap);
    EXPECT_THROW(routes.route(-1, all), contract_violation);
    EXPECT_THROW(routes.route(4, all), contract_violation);
    EXPECT_THROW(point_query(snap, -1, 2), contract_violation);
    EXPECT_THROW(point_query(snap, 0, 4), contract_violation);
    // Only the last query's targets can be read.
    const std::vector<int> node_1{1};
    routes.route(0, node_1);
    EXPECT_EQ(routes.latency_s(1), 0.001);
    EXPECT_THROW(routes.latency_s(2), contract_violation);
    EXPECT_THROW(routes.path_to(2), contract_violation);
    EXPECT_THROW(routes.path_to(9), contract_violation);
}

TEST(Routing, SingleSourceLatenciesMatchPointQueries)
{
    const auto snap = line_graph();
    router routes(snap);
    routes.route(0, every_node(snap));
    EXPECT_EQ(routes.latency_s(0), 0.0);
    for (int v = 1; v < 4; ++v)
        EXPECT_DOUBLE_EQ(routes.latency_s(v), point_query(snap, 0, v).latency_s);
}

TEST(Routing, SingleSourceOnDisconnectedSnapshot)
{
    // Nodes 2 and 3 form a separate (edgeless) component.
    const auto snap = make_network_snapshot(4, 0, {{0, 1, 0.001}});
    router routes(snap);
    const auto all = every_node(snap);
    routes.route(0, all);
    EXPECT_DOUBLE_EQ(routes.latency_s(1), 0.001);
    EXPECT_EQ(routes.latency_s(2), inf);
    EXPECT_EQ(routes.latency_s(3), inf);
    EXPECT_THROW(routes.route(9, all), contract_violation);
}

TEST(Routing, RouteTreeMatchesPointQueries)
{
    const auto snap = line_graph();
    router routes(snap);
    routes.route(0, every_node(snap));
    for (int v = 0; v < 4; ++v) {
        const auto query = point_query(snap, 0, v);
        ASSERT_NE(routes.latency_s(v), inf);
        EXPECT_DOUBLE_EQ(routes.latency_s(v), query.latency_s);
        EXPECT_EQ(routes.path_to(v), query.path);
    }
    EXPECT_THROW(routes.path_to(9), contract_violation);
}

TEST(Routing, RouteTreeOnDisconnectedSnapshot)
{
    const auto snap = make_network_snapshot(3, 0, {{0, 1, 0.001}});
    router routes(snap);
    routes.route(0, every_node(snap));
    EXPECT_NE(routes.latency_s(1), inf);
    EXPECT_EQ(routes.path_to(1), (std::vector<int>{0, 1}));
    EXPECT_EQ(routes.latency_s(2), inf);
    EXPECT_TRUE(routes.path_to(2).empty());
}

TEST(Routing, PathConsistencyOnSampledSnapshot)
{
    // All station pairs of a real (sparse, partially disconnected) snapshot:
    // the point query, the full pass and the reference must agree exactly,
    // including on unreachable pairs.
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 10;
    params.sats_per_plane = 10;
    params.phasing_f = 1;
    const auto topo = build_walker_grid_topology(params);
    // Mid-latitude metros connect through this grid; Anchorage (61°N) sits
    // above the 53°-inclination coverage band, so the disconnected branch
    // is exercised too.
    const auto stations = default_ground_stations();
    const snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                   deg2rad(25.0));
    const std::vector<double> epoch_only{0.0};
    const auto snap =
        builder.snapshot_from_positions(builder.positions_at_offsets(epoch_only)[0]);

    const int n = static_cast<int>(stations.size());
    const auto all = every_node(snap);
    router routes(snap);
    bool any_reachable = false;
    bool any_unreachable = false;
    for (int a = 0; a < n; ++a) {
        const int src = snap.ground_node(a);
        const auto reference = reference_dijkstra(snap, src);
        routes.route(src, all);
        for (int b = 0; b < n; ++b) {
            if (b == a) continue;
            const int dst = snap.ground_node(b);
            const auto query = point_query(snap, src, dst);
            EXPECT_EQ(routes.path_to(dst), query.path);
            EXPECT_EQ(routes.path_to(dst), reference.path_to(dst));
            EXPECT_EQ(routes.latency_s(dst), query.latency_s);
            EXPECT_EQ(routes.latency_s(dst), reference.latency_s[static_cast<std::size_t>(dst)]);
            any_reachable |= query.latency_s != inf;
            any_unreachable |= query.latency_s == inf;
        }
    }
    EXPECT_TRUE(any_reachable);
    EXPECT_TRUE(any_unreachable);
}

TEST(Routing, GroundNodeRejectsOutOfRangeIndices)
{
    const auto snap = make_network_snapshot(1, 2, {});
    EXPECT_THROW(snap.ground_node(-1), contract_violation);
    EXPECT_THROW(snap.ground_node(2), contract_violation);
}

TEST(Routing, GroundRouteUsesGroundIndices)
{
    // ground0 <-> sat0 <-> ground1
    const auto snap = make_network_snapshot(1, 2, {{1, 0, 0.002}, {0, 2, 0.003}});
    const int g0 = snap.ground_node(0);
    const int g1 = snap.ground_node(1);
    const auto route = point_query(snap, g0, g1);
    EXPECT_NEAR(route.latency_s, 0.005, 1e-12);
    EXPECT_EQ(route.path, (std::vector<int>{1, 0, 2})); // two hops
}

TEST(Routing, ComponentsAreTheZeroCostLinks)
{
    // 0 =0= 1 -1ms- 2 =-0= 3, 4 alone, 1 =0= 5 under the cost span only.
    const auto snap = make_network_snapshot(
        6, 0, {{0, 1, 0.0}, {1, 2, 0.001}, {2, 3, -0.0}, {1, 5, 0.002}});
    router routes(snap);
    EXPECT_EQ(routes.n_components(), 4); // {0, 1}, {2, 3}, {4}, {5}
    const std::vector<double> cost{0.0, 1.0e-300, 0.0, 0.0};
    router costed(snap, cost);
    EXPECT_EQ(costed.n_components(), 3); // {0, 1, 5}, {2, 3}, {4}
    // From every node, twins of the source included, to every node.
    const auto all = every_node(snap);
    for (int src = 0; src < snap.n_nodes(); ++src) {
        expect_reference(routes, snap, src, all);
        expect_reference(costed, snap, src, all, cost);
    }
    costed.route(3, all);
    EXPECT_EQ(costed.path_to(5), (std::vector<int>{3, 2, 1, 5}));
    EXPECT_EQ(costed.latency_s(5), 1.0e-300);
}

TEST(Routing, PredecessorFollowsTheKeyPopOrder)
{
    // Key 1 holds node 9 (zero-cost twin of node 2), node 5 and node 7;
    // 9, 5 and 7 are reached from the source at exactly 1. Node-level
    // Dijkstra pops 5 before 9, and 1 + 1e-18 == 1, so node 5 reaches 2
    // first: 2's predecessor is 5, although 2 shares a component with 9
    // and 5's component settles after 2's. Node 3 is 7's zero-cost twin,
    // so key 1 pops 7 before 3, and 8, reached at exactly 2 from both, takes
    // 7 although 3 has the lower id.
    const auto snap = make_network_snapshot(10, 0,
                                            {{0, 9, 1.0},
                                             {0, 5, 1.0},
                                             {5, 2, 1.0e-18},
                                             {2, 9, 0.0},
                                             {0, 7, 1.0},
                                             {7, 3, 0.0},
                                             {3, 8, 1.0},
                                             {7, 8, 1.0}});
    router routes(snap);
    const std::vector<int> node_2{2};
    routes.route(0, node_2);
    EXPECT_EQ(routes.latency_s(2), 1.0);
    EXPECT_EQ(routes.path_to(2), (std::vector<int>{0, 5, 2}));
    const std::vector<int> node_8{8};
    routes.route(0, node_8);
    EXPECT_EQ(routes.path_to(8), (std::vector<int>{0, 7, 8}));
    for (const auto& targets : {node_2, node_8, every_node(snap)})
        expect_reference(routes, snap, 0, targets);
}

TEST(Routing, TargetBoundedTreesMatchTheFullPassOnMaskedWalkerSnapshots)
{
    // Randomly masked Walker +Grid snapshots, half of them with latencies
    // snapped to multiples of 2^-10 s so that sums are exact and equal-cost
    // paths tie bit for bit. For every listed target — duplicates, the
    // source itself and unreachable nodes included — the bounded query must
    // return the full pass's path and latency exactly, and both must equal
    // the binary-heap reference, which pins the (latency, node id) tie
    // order on the snapped trials.
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 12;
    params.sats_per_plane = 12;
    params.phasing_f = 1;
    const auto topo = build_walker_grid_topology(params);
    const snapshot_builder builder(topo, default_ground_stations(),
                                   astro::instant::j2000(), deg2rad(25.0));
    const int n_sats = builder.n_satellites();
    std::vector<double> offsets;
    for (int trial = 0; trial < 24; ++trial) offsets.push_back(600.0 * trial);
    const auto positions = builder.positions_at_offsets(offsets);

    rng draws(2024);
    bool saw_unreachable = false;
    bool saw_source = false;
    for (int trial = 0; trial < 24; ++trial) {
        std::vector<std::uint8_t> mask(static_cast<std::size_t>(n_sats), 0);
        const double loss = draws.uniform(0.0, 0.5);
        for (auto& failed : mask) failed = draws.bernoulli(loss) ? 1 : 0;
        auto snap = builder.snapshot_from_positions(
            positions[static_cast<std::size_t>(trial)], mask);
        if (trial % 2 == 1)
            for (auto& link : snap.links)
                link.latency_s = std::round(link.latency_s * 1024.0) / 1024.0;
        const int n_nodes = snap.n_nodes();
        const auto all = every_node(snap);
        router routes(snap);

        for (int query = 0; query < 6; ++query) {
            SCOPED_TRACE(::testing::Message() << "trial " << trial << " query " << query);
            const int src = static_cast<int>(draws.uniform_int(0, n_nodes - 1));
            const auto full = reference_dijkstra(snap, src);
            std::vector<int> targets;
            const auto n_targets = draws.uniform_int(1, 8);
            for (std::int64_t t = 0; t < n_targets; ++t)
                targets.push_back(static_cast<int>(draws.uniform_int(0, n_nodes - 1)));
            targets.push_back(targets.front()); // a duplicate
            if (query % 3 == 0) targets.push_back(src);
            for (int v = 0; v < n_nodes; ++v)
                if (!full.reachable(v)) {
                    targets.push_back(v); // at most one unreachable node
                    break;
                }

            routes.route(src, all);
            std::vector<route_to> whole;
            for (const int t : targets) whole.push_back({routes.latency_s(t), routes.path_to(t)});
            expect_reference(routes, snap, src, all);
            expect_reference(routes, snap, src, targets);
            for (std::size_t i = 0; i < targets.size(); ++i) {
                const int t = targets[i];
                EXPECT_EQ(routes.latency_s(t), whole[i].latency_s) << "target " << t;
                EXPECT_EQ(routes.path_to(t), whole[i].path) << "target " << t;
                saw_unreachable |= whole[i].latency_s == inf;
                saw_source |= t == src;
            }
        }
    }
    EXPECT_TRUE(saw_unreachable);
    EXPECT_TRUE(saw_source);
}

TEST(Routing, LinkCostsMatchASnapshotRebuiltFromTheFiniteCostLinks)
{
    // Randomly masked Walker +Grid snapshots with random positive link
    // costs and +inf on a random tenth of the links. The router under the
    // costs must answer, bit for bit, what a router over the snapshot
    // rebuilt from the finite-cost links, in link order, with those costs
    // as latencies answers: an infinite cost is a link that is not there.
    // Both must equal the binary-heap reference, bounded and full.
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 12;
    params.sats_per_plane = 12;
    params.phasing_f = 1;
    const auto topo = build_walker_grid_topology(params);
    const snapshot_builder builder(topo, default_ground_stations(),
                                   astro::instant::j2000(), deg2rad(25.0));
    std::vector<double> offsets;
    for (int trial = 0; trial < 16; ++trial) offsets.push_back(900.0 * trial);
    const auto positions = builder.positions_at_offsets(offsets);

    rng draws(77);
    int dropped = 0;
    for (int trial = 0; trial < 16; ++trial) {
        std::vector<std::uint8_t> mask(static_cast<std::size_t>(builder.n_satellites()), 0);
        const double loss = draws.uniform(0.0, 0.3);
        for (auto& failed : mask) failed = draws.bernoulli(loss) ? 1 : 0;
        const auto snap = builder.snapshot_from_positions(
            positions[static_cast<std::size_t>(trial)], mask);

        std::vector<double> cost(snap.links.size());
        std::vector<network_snapshot::link> finite;
        for (std::size_t id = 0; id < cost.size(); ++id) {
            cost[id] = draws.bernoulli(0.1) ? inf : draws.uniform(1.0e-4, 1.0e-2);
            if (cost[id] == inf)
                ++dropped;
            else
                finite.push_back({snap.links[id].a, snap.links[id].b, cost[id]});
        }
        const auto rebuilt =
            make_network_snapshot(snap.n_satellites, snap.n_ground, finite);
        const auto all = every_node(snap);
        router with_costs(snap, cost);
        router plain(rebuilt);

        for (int query = 0; query < 4; ++query) {
            SCOPED_TRACE(::testing::Message() << "trial " << trial << " query " << query);
            const int src = static_cast<int>(draws.uniform_int(0, snap.n_nodes() - 1));
            std::vector<int> targets;
            for (int g = 0; g < snap.n_ground; ++g) targets.push_back(snap.ground_node(g));
            targets.push_back(static_cast<int>(draws.uniform_int(0, snap.n_nodes() - 1)));
            with_costs.route(src, targets);
            plain.route(src, targets);
            for (const int t : targets) {
                EXPECT_EQ(with_costs.latency_s(t), plain.latency_s(t)) << "target " << t;
                EXPECT_EQ(with_costs.path_to(t), plain.path_to(t)) << "target " << t;
            }
            expect_reference(with_costs, snap, src, targets, cost);
            expect_reference(plain, rebuilt, src, targets);
            expect_reference(with_costs, snap, src, all, cost);
        }
    }
    EXPECT_GT(dropped, 0);

    const auto line = line_graph();
    const std::vector<double> short_costs{0.001, 0.002};
    EXPECT_THROW(router(line, short_costs), contract_violation);

    // A negative or NaN cost is rejected when the router is built.
    // Unchecked, the triangle 0-1 (1 ms), 0-2 (3 ms), 1-2 (-2.5 ms) reads
    // 1 ms to node 1 instead of 0.5 ms, and a pass with the isolated node
    // 3 listed never returns. +inf stays an absent link and -0 a zero cost.
    const auto triangle =
        make_network_snapshot(4, 0, {{0, 1, 0.001}, {0, 2, 0.003}, {1, 2, 0.001}});
    const std::vector<int> node_1{1};
    const std::vector<double> negative{0.001, 0.003, -0.0025};
    const std::vector<double> not_a_number{0.001, std::nan(""), 0.001};
    EXPECT_THROW(router(triangle, negative), contract_violation);
    EXPECT_THROW(router(triangle, not_a_number), contract_violation);
    const std::vector<double> absent_and_zero{inf, 0.003, -0.0};
    router routes(triangle, absent_and_zero);
    routes.route(0, node_1);
    EXPECT_EQ(routes.path_to(1), (std::vector<int>{0, 2, 1}));
    EXPECT_EQ(routes.latency_s(1), 0.003);
    expect_reference(routes, triangle, 0, every_node(triangle), absent_and_zero);
}

TEST(Routing, LatencyEditedNegativeAfterTheFactoryThrowsInsteadOfLooping)
{
    // The factory rejects a negative latency; one written into the table
    // afterwards reaches the router, which refuses it when built, so no
    // query can cycle or misroute on it.
    auto triangle =
        make_network_snapshot(4, 0, {{0, 1, 0.001}, {0, 2, 0.003}, {1, 2, 0.001}});
    triangle.links[2].latency_s = -0.0025;
    EXPECT_THROW(router{triangle}, contract_violation);
    triangle.links[2].latency_s = std::nan("");
    EXPECT_THROW(router{triangle}, contract_violation);
}

TEST(Routing, MatchesTheBinaryHeapReferenceOnAnSsSnapshotOfTheNetworkDayShape)
{
    // An SS shell of the network_day size whose 130 planes all differ in
    // LTAN and phase, so no link has zero latency and every node is its
    // own component: 12 gateways, one snapshot at the epoch. From every
    // gateway, the full pass and the query bounded to the other gateways
    // must equal the binary-heap reference, with latencies as built and
    // snapped to multiples of 2^-10 s (exact sums, so equal-latency paths
    // tie), and under a seeded cost span with +inf on a tenth of the links.
    std::vector<constellation::ss_plane> planes;
    for (int plane = 0; plane < 130; ++plane)
        planes.push_back({560.0e3, 24.0 * plane / 130.0, 25, 0.05 * plane});
    const auto topo = build_ss_topology(planes, astro::instant::j2000());
    const snapshot_builder builder(topo, default_ground_stations(),
                                   astro::instant::j2000(), deg2rad(30.0));
    const std::vector<double> epoch_only{0.0};
    const auto as_built =
        builder.snapshot_from_positions(builder.positions_at_offsets(epoch_only)[0]);
    ASSERT_EQ(as_built.n_nodes(), 3262);
    const auto snapped = [&] {
        auto snap = as_built;
        for (auto& link : snap.links)
            link.latency_s = std::round(link.latency_s * 1024.0) / 1024.0;
        return snap;
    }();

    rng draws(20);
    std::vector<double> cost(as_built.links.size());
    for (auto& c : cost)
        c = draws.bernoulli(0.1) ? inf : draws.uniform(1.0e-4, 1.0e-2);

    bool saw_tie = false;
    for (const auto* snap : {&as_built, &snapped}) {
        router routes(*snap);
        router costed(*snap, cost);
        EXPECT_EQ(routes.n_components(), snap->n_nodes());
        const auto all = every_node(*snap);
        for (int g = 0; g < snap->n_ground; ++g) {
            SCOPED_TRACE(::testing::Message() << (snap == &snapped ? "snapped" : "as built")
                                              << ", gateway " << g);
            const int src = snap->ground_node(g);
            std::vector<int> gateways;
            for (int h = 0; h < snap->n_ground; ++h)
                if (h != g) gateways.push_back(snap->ground_node(h));
            expect_reference(routes, *snap, src, all);
            expect_reference(routes, *snap, src, gateways);
            expect_reference(costed, *snap, src, gateways, cost);
            // A node with a second predecessor at equal latency: only the
            // settle order chose between them.
            const auto full = reference_dijkstra(*snap, src);
            for (int v = 0; v < snap->n_nodes(); ++v) {
                const auto vi = static_cast<std::size_t>(v);
                for (const auto& arc : snap->arcs_of(v))
                    saw_tie |= full.prev[vi] >= 0 && arc.to != full.prev[vi] &&
                               full.latency_s[static_cast<std::size_t>(arc.to)] +
                                       snap->links[static_cast<std::size_t>(arc.link)]
                                           .latency_s ==
                                   full.latency_s[vi];
            }
        }
    }
    EXPECT_TRUE(saw_tie);
}

/// The network_day constellation: the greedy SS design (3250 satellites in
/// 130 planes, stacked on 31 distinct orbits, all at phase 0) over a dozen
/// metros, wired at the example's epoch.
const snapshot_builder& network_day_builder()
{
    static const lsn_topology topology = [] {
        const demand::population_model population;
        const demand::demand_model demand(population);
        const auto design = core::greedy_ss_cover(core::make_design_problem(demand, 10.0));
        std::vector<constellation::ss_plane> planes;
        for (const auto& p : design.planes)
            planes.push_back({p.altitude_m, p.ltan_h, p.n_sats, 0.0});
        return build_ss_topology(planes, astro::instant::from_calendar(2026, 6, 1, 0));
    }();
    static const snapshot_builder builder(topology, default_ground_stations(),
                                          astro::instant::from_calendar(2026, 6, 1, 0),
                                          scenario_sweep_options{}.min_elevation_rad);
    return builder;
}

TEST(Routing, MatchesTheReferenceOnTheNetworkDayDesignWithItsZeroLatencyTwins)
{
    // The network_day design stacks its 130 planes on 31 orbits at phase 0:
    // 3250 satellites at 775 positions, joined by 2475 zero-latency ISLs,
    // so the 3262 nodes route as 787 components. Under random plane masks,
    // latencies as built and snapped to 2^-10 s, and cost spans mixing
    // exact 0 and -0, costs that a sum absorbs (1e-300, 1e-18), +inf and
    // positive costs, every query from a gateway or a satellite must
    // return the reference's latency and node path for each target:
    // duplicates, the source itself and unreachable nodes included.
    const auto& builder = network_day_builder();
    const auto& topology = builder.topology();
    const std::vector<double> epoch_only{0.0};
    const auto positions = builder.positions_at_offsets(epoch_only)[0];
    const auto unfailed = builder.snapshot_from_positions(positions);
    ASSERT_EQ(unfailed.n_nodes(), 3262);
    int zero_links = 0;
    for (const auto& link : unfailed.links) zero_links += link.latency_s == 0.0;
    EXPECT_EQ(zero_links, 2475);
    EXPECT_EQ(router(unfailed).n_components(), 787);
    int n_planes = 0;
    for (const auto& sat : topology.satellites) n_planes = std::max(n_planes, sat.plane + 1);
    ASSERT_EQ(n_planes, 130);

    rng draws(3);
    int compared = 0;
    bool saw_unreachable = false;
    bool saw_absorbed_tie = false;
    for (int trial = 0; trial < 12; ++trial) {
        // Fail a random handful of whole planes (none in the first trials).
        std::vector<std::uint8_t> failed_plane(static_cast<std::size_t>(n_planes), 0);
        const auto n_struck = trial < 2 ? 0 : draws.uniform_int(1, 12);
        for (std::int64_t k = 0; k < n_struck; ++k)
            failed_plane[static_cast<std::size_t>(draws.uniform_int(0, n_planes - 1))] = 1;
        std::vector<std::uint8_t> mask;
        for (const auto& sat : topology.satellites)
            mask.push_back(failed_plane[static_cast<std::size_t>(sat.plane)]);
        auto snap = builder.snapshot_from_positions(positions, mask);
        if (trial % 2 == 1)
            for (auto& link : snap.links)
                link.latency_s = std::round(link.latency_s * 1024.0) / 1024.0;

        // Even trials route on the latencies; odd ones on a cost span.
        std::vector<double> cost;
        if (trial % 4 >= 2) {
            for (const auto& link : snap.links) {
                const double share = draws.uniform(0.0, 1.0);
                cost.push_back(share < 0.15   ? 0.0
                               : share < 0.2  ? -0.0
                               : share < 0.3  ? 1.0e-300
                               : share < 0.45 ? 1.0e-18
                               : share < 0.5  ? inf
                               : share < 0.75 ? link.latency_s
                                              : link.latency_s * draws.uniform(1.0, 3.0));
            }
        }
        router routes(snap, cost);
        for (int query = 0; query < 8; ++query) {
            SCOPED_TRACE(::testing::Message() << "trial " << trial << " query " << query);
            const int src = query % 2 == 0
                                ? snap.ground_node(static_cast<int>(
                                      draws.uniform_int(0, snap.n_ground - 1)))
                                : static_cast<int>(draws.uniform_int(0, snap.n_satellites - 1));
            std::vector<int> targets;
            for (int g = 0; g < snap.n_ground; ++g) targets.push_back(snap.ground_node(g));
            const auto n_sats = draws.uniform_int(1, 40);
            for (std::int64_t t = 0; t < n_sats; ++t)
                targets.push_back(static_cast<int>(draws.uniform_int(0, snap.n_nodes() - 1)));
            targets.push_back(targets.back()); // a duplicate
            if (query % 3 == 0) targets.push_back(src);
            const auto full = reference_dijkstra(snap, src, std::nullopt, cost);
            for (int v = 0; v < snap.n_nodes(); ++v)
                if (!full.reachable(v)) {
                    targets.push_back(v);
                    saw_unreachable = true;
                    break;
                }
            compared += expect_reference(routes, snap, src, targets, cost);
            // A reached node whose predecessor shares its latency over a
            // positive cost: an absorbed link decided its pop order.
            for (int v = 0; v < snap.n_nodes() && !cost.empty(); ++v) {
                const int u = full.prev[static_cast<std::size_t>(v)];
                if (u < 0) continue;
                const auto id = static_cast<std::size_t>(snap.link_between(u, v));
                saw_absorbed_tie |= cost[id] > 0.0 &&
                                    full.latency_s[static_cast<std::size_t>(u)] ==
                                        full.latency_s[static_cast<std::size_t>(v)];
            }
        }
        if (trial % 4 == 0) compared += expect_reference(routes, snap, snap.ground_node(0),
                                                         every_node(snap), cost);
        // Point queries to satellites under the costs: each stops at its
        // target's key, where a component that settles after the target's
        // may still have reached one of its members first.
        for (int query = 0; query < 150 && !cost.empty(); ++query) {
            const int src = static_cast<int>(draws.uniform_int(0, snap.n_nodes() - 1));
            const std::vector<int> one{
                static_cast<int>(draws.uniform_int(0, snap.n_satellites - 1))};
            compared += expect_reference(routes, snap, src, one, cost);
        }
    }
    EXPECT_GT(compared, 10000);
    EXPECT_TRUE(saw_unreachable);
    EXPECT_TRUE(saw_absorbed_tie);
}

TEST(Routing, MatchesTheReferenceOnSmallGraphsDenseWithTies)
{
    // Random multigraphs of up to 40 nodes whose costs are small integers,
    // exact 0 and -0, costs that a sum of 1 or more absorbs (1e-18) or that
    // stay visible only at key 0 (1e-300), and +inf: nearly every key holds
    // several components, and most nodes have several predecessors at equal
    // latency. Every target of every query must match the reference.
    rng draws(11);
    const std::vector<double> shares{0.0, -0.0, 1.0, 1.0, 2.0, 3.0, 1.0e-18, 1.0e-300, inf};
    int compared = 0;
    for (int graph = 0; graph < 400; ++graph) {
        const int n = static_cast<int>(draws.uniform_int(2, 40));
        std::vector<network_snapshot::link> links;
        const auto n_links = draws.uniform_int(0, 3 * n);
        for (std::int64_t k = 0; k < n_links; ++k) {
            const int a = static_cast<int>(draws.uniform_int(0, n - 1));
            const int b = static_cast<int>(draws.uniform_int(0, n - 1));
            if (a != b) links.push_back({a, b, 1.0});
        }
        const auto snap = make_network_snapshot(n, 0, links);
        std::vector<double> cost;
        for (std::size_t id = 0; id < snap.links.size(); ++id)
            cost.push_back(shares[static_cast<std::size_t>(
                draws.uniform_int(0, static_cast<std::int64_t>(shares.size()) - 1))]);
        router routes(snap, cost);
        for (int query = 0; query < 4; ++query) {
            SCOPED_TRACE(::testing::Message() << "graph " << graph << " query " << query);
            const int src = static_cast<int>(draws.uniform_int(0, n - 1));
            std::vector<int> targets;
            const auto n_targets = draws.uniform_int(1, 4);
            for (std::int64_t t = 0; t < n_targets; ++t)
                targets.push_back(static_cast<int>(draws.uniform_int(0, n - 1)));
            compared += expect_reference(routes, snap, src, targets, cost);
        }
        compared += expect_reference(routes, snap, 0, every_node(snap), cost);
    }
    EXPECT_GT(compared, 5000);
}

/// Node pairs on which `routes.connected` disagrees with a union-find over
/// the links whose cost (the latency when `cost` is empty) is not +inf.
int connectivity_mismatches(const router& routes, const network_snapshot& snap,
                            std::span<const double> cost)
{
    union_find finite(snap.n_nodes());
    for (std::size_t id = 0; id < snap.links.size(); ++id)
        if ((cost.empty() ? snap.links[id].latency_s : cost[id]) != inf)
            finite.unite(snap.links[id].a, snap.links[id].b);
    std::vector<int> root(static_cast<std::size_t>(snap.n_nodes()));
    for (int v = 0; v < snap.n_nodes(); ++v) root[static_cast<std::size_t>(v)] = finite.find(v);
    int mismatches = 0;
    for (int a = 0; a < snap.n_nodes(); ++a)
        for (int b = a; b < snap.n_nodes(); ++b)
            mismatches += routes.connected(a, b) != (root[static_cast<std::size_t>(a)] ==
                                                     root[static_cast<std::size_t>(b)]);
    return mismatches;
}

TEST(Routing, ConnectedIsTheFiniteCostLinksUnionFindOnSmallGraphs)
{
    // Random multigraphs of up to 40 nodes whose costs are exact 0 and -0,
    // 1e-300, 1 and +inf: zero-cost links join components, +inf links join
    // nothing, and every other cost joins two components through a hop.
    // For every node pair, `connected` must be a union-find over the
    // finite-cost links, and a query from one node must reach exactly the
    // nodes it is connected to.
    rng draws(5);
    const std::vector<double> shares{0.0, -0.0, 1.0e-300, 1.0, inf, inf};
    int split = 0;
    int joined = 0;
    for (int graph = 0; graph < 300; ++graph) {
        SCOPED_TRACE(::testing::Message() << "graph " << graph);
        const int n = static_cast<int>(draws.uniform_int(2, 40));
        std::vector<network_snapshot::link> links;
        const auto n_links = draws.uniform_int(0, 2 * n);
        for (std::int64_t k = 0; k < n_links; ++k) {
            const int a = static_cast<int>(draws.uniform_int(0, n - 1));
            const int b = static_cast<int>(draws.uniform_int(0, n - 1));
            if (a != b) links.push_back({a, b, 1.0});
        }
        const auto snap = make_network_snapshot(n, 0, links);
        std::vector<double> cost;
        for (std::size_t id = 0; id < snap.links.size(); ++id)
            cost.push_back(shares[static_cast<std::size_t>(
                draws.uniform_int(0, static_cast<std::int64_t>(shares.size()) - 1))]);
        router routes(snap, cost);
        EXPECT_EQ(connectivity_mismatches(routes, snap, cost), 0);
        const auto all = every_node(snap);
        const int src = static_cast<int>(draws.uniform_int(0, n - 1));
        routes.route(src, all);
        for (const int v : all) {
            EXPECT_EQ(routes.connected(src, v), routes.latency_s(v) != inf) << "node " << v;
            split += !routes.connected(src, v);
            joined += routes.connected(src, v) && v != src;
        }
    }
    EXPECT_GT(split, 0);
    EXPECT_GT(joined, 0);
    const auto line = line_graph();
    const router line_routes(line);
    EXPECT_THROW((void)line_routes.connected(-1, 0), contract_violation);
    EXPECT_THROW((void)line_routes.connected(0, 4), contract_violation);
}

TEST(Routing, ConnectedIsTheFiniteCostLinksUnionFindOnTheNetworkDayDesign)
{
    // The network_day design under random plane masks, its latencies as
    // built or under a cost span whose +inf links stand for saturated ones:
    // for every node pair, `connected` must be a union-find over the
    // finite-cost links.
    const auto& builder = network_day_builder();
    const auto& topology = builder.topology();
    const std::vector<double> epoch_only{0.0};
    const auto positions = builder.positions_at_offsets(epoch_only)[0];
    int n_planes = 0;
    for (const auto& sat : topology.satellites) n_planes = std::max(n_planes, sat.plane + 1);

    rng draws(8);
    bool saw_split_gateways = false;
    for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial);
        std::vector<std::uint8_t> failed_plane(static_cast<std::size_t>(n_planes), 0);
        const auto n_struck = trial == 0 ? 0 : draws.uniform_int(1, 40);
        for (std::int64_t k = 0; k < n_struck; ++k)
            failed_plane[static_cast<std::size_t>(draws.uniform_int(0, n_planes - 1))] = 1;
        std::vector<std::uint8_t> mask;
        for (const auto& sat : topology.satellites)
            mask.push_back(failed_plane[static_cast<std::size_t>(sat.plane)]);
        const auto snap = builder.snapshot_from_positions(positions, mask);
        std::vector<double> cost;
        if (trial % 2 == 1) {
            const double saturated = draws.uniform(0.2, 0.6);
            for (const auto& link : snap.links)
                cost.push_back(draws.bernoulli(saturated) ? inf : link.latency_s);
        }
        const router routes(snap, cost);
        EXPECT_EQ(connectivity_mismatches(routes, snap, cost), 0);
        for (int g = 1; g < snap.n_ground; ++g)
            saw_split_gateways |= !routes.connected(snap.ground_node(0), snap.ground_node(g));
    }
    EXPECT_TRUE(saw_split_gateways);
}

TEST(Routing, TargetBoundedTreeEdgeCases)
{
    const auto snap = line_graph();
    router routes(snap);
    // No targets: nothing to settle, nothing to read.
    routes.route(0, {});
    EXPECT_THROW(routes.latency_s(0), contract_violation);
    // The query stops at the target's key: the far side stays unsettled.
    const std::vector<int> near{1};
    routes.route(0, near);
    EXPECT_EQ(routes.path_to(1), (std::vector<int>{0, 1}));
    const std::vector<int> bad{4};
    EXPECT_THROW(routes.route(0, bad), contract_violation);
    EXPECT_THROW(routes.route(9, near), contract_violation);

    // Target 1 is first reached at 5 ms, then settles at 2 ms via node 2;
    // its stale 5 ms entry pops before target 4 (first reached at 20 ms)
    // settles at 7 ms via node 3, and must not count as a settled target.
    const auto stale = make_network_snapshot(5, 0,
                                             {{0, 1, 0.005},
                                              {0, 2, 0.001},
                                              {2, 1, 0.001},
                                              {0, 3, 0.006},
                                              {3, 4, 0.001},
                                              {0, 4, 0.020}});
    router stale_routes(stale);
    const std::vector<int> near_and_far{1, 4};
    stale_routes.route(0, near_and_far);
    EXPECT_EQ(stale_routes.path_to(1), (std::vector<int>{0, 2, 1}));
    EXPECT_EQ(stale_routes.path_to(4), (std::vector<int>{0, 3, 4}));
    EXPECT_EQ(stale_routes.latency_s(4), point_query(stale, 0, 4).latency_s);
}

} // namespace
} // namespace ssplane::lsn
