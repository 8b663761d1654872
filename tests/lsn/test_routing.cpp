#include "lsn/routing.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "lsn/scenario.h"
#include "reference_dijkstra.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/rng.h"

namespace ssplane::lsn {
namespace {

/// Hand-built snapshot: a small weighted graph.
network_snapshot line_graph()
{
    //  0 --1ms-- 1 --2ms-- 2 --1ms-- 3     and a slow shortcut 0 --10ms-- 3
    return make_network_snapshot(
        4, 0, {{0, 1, 0.001}, {1, 2, 0.002}, {2, 3, 0.001}, {0, 3, 0.010}});
}

/// Whole-array bit identity with the binary-heap reference: every latency
/// and every predecessor, settled or not.
void expect_same_tree(const route_tree& tree, const route_tree& reference)
{
    EXPECT_EQ(tree.source, reference.source);
    EXPECT_EQ(tree.latency_s, reference.latency_s);
    EXPECT_EQ(tree.prev, reference.prev);
}

/// The pass bounded to `dst` alone: the point-to-point query.
route_tree point_query(const network_snapshot& snap, int src, int dst)
{
    const std::vector<int> target{dst};
    return single_source_routes(snap, src, target);
}

TEST(Routing, FindsShortestPath)
{
    const auto snap = line_graph();
    const auto tree = single_source_routes(snap, 0);
    ASSERT_TRUE(tree.reachable(3));
    EXPECT_NEAR(tree.latency_s[3], 0.004, 1e-12);
    const auto path = tree.path_to(3);
    ASSERT_EQ(path.size(), 4u); // three hops
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), 3);
}

TEST(Routing, SourceEqualsDestination)
{
    const auto snap = line_graph();
    const auto tree = point_query(snap, 2, 2);
    ASSERT_TRUE(tree.reachable(2));
    EXPECT_EQ(tree.latency_s[2], 0.0);
    EXPECT_EQ(tree.path_to(2), std::vector<int>{2}); // zero hops
}

TEST(Routing, UnreachableNode)
{
    const auto snap = make_network_snapshot(3, 0, {{0, 1, 0.001}});
    const auto tree = point_query(snap, 0, 2);
    EXPECT_FALSE(tree.reachable(2));
    EXPECT_TRUE(tree.path_to(2).empty());
}

TEST(Routing, PathEdgesExist)
{
    const auto snap = line_graph();
    const auto path = point_query(snap, 0, 2).path_to(2);
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
    EXPECT_THROW(single_source_routes(snap, -1), contract_violation);
    EXPECT_THROW(single_source_routes(snap, 4), contract_violation);
    EXPECT_THROW(point_query(snap, -1, 2), contract_violation);
    EXPECT_THROW(point_query(snap, 0, 4), contract_violation);
}

TEST(Routing, SingleSourceLatenciesMatchPointQueries)
{
    const auto snap = line_graph();
    const auto dist = single_source_routes(snap, 0).latency_s;
    ASSERT_EQ(dist.size(), 4u);
    EXPECT_EQ(dist[0], 0.0);
    for (int v = 1; v < 4; ++v)
        EXPECT_DOUBLE_EQ(dist[static_cast<std::size_t>(v)],
                         point_query(snap, 0, v).latency_s[static_cast<std::size_t>(v)]);
}

TEST(Routing, SingleSourceOnDisconnectedSnapshot)
{
    // Nodes 2 and 3 form a separate (edgeless) component.
    const auto snap = make_network_snapshot(4, 0, {{0, 1, 0.001}});
    const auto dist = single_source_routes(snap, 0).latency_s;
    EXPECT_DOUBLE_EQ(dist[1], 0.001);
    EXPECT_EQ(dist[2], std::numeric_limits<double>::infinity());
    EXPECT_EQ(dist[3], std::numeric_limits<double>::infinity());
    EXPECT_THROW(single_source_routes(snap, 9), contract_violation);
}

TEST(Routing, RouteTreeMatchesPointQueries)
{
    const auto snap = line_graph();
    const auto tree = single_source_routes(snap, 0);
    ASSERT_EQ(tree.latency_s.size(), 4u);
    EXPECT_EQ(tree.source, 0);
    for (int v = 0; v < 4; ++v) {
        const auto query = point_query(snap, 0, v);
        const auto vi = static_cast<std::size_t>(v);
        ASSERT_TRUE(tree.reachable(v));
        EXPECT_DOUBLE_EQ(tree.latency_s[vi], query.latency_s[vi]);
        EXPECT_EQ(tree.path_to(v), query.path_to(v));
    }
    EXPECT_THROW(tree.path_to(9), contract_violation);
}

TEST(Routing, RouteTreeOnDisconnectedSnapshot)
{
    const auto snap = make_network_snapshot(3, 0, {{0, 1, 0.001}});
    const auto tree = single_source_routes(snap, 0);
    EXPECT_TRUE(tree.reachable(1));
    EXPECT_FALSE(tree.reachable(2));
    EXPECT_TRUE(tree.path_to(2).empty());
}

TEST(Routing, PathConsistencyOnSampledSnapshot)
{
    // All station pairs of a real (sparse, partially disconnected) snapshot:
    // the point query and the full single-source pass must agree exactly,
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
    bool any_reachable = false;
    bool any_unreachable = false;
    for (int a = 0; a < n; ++a) {
        const auto tree = single_source_routes(snap, snap.ground_node(a));
        for (int b = 0; b < n; ++b) {
            if (b == a) continue;
            const int dst = snap.ground_node(b);
            const auto query = point_query(snap, snap.ground_node(a), dst);
            const double d = tree.latency_s[static_cast<std::size_t>(dst)];
            EXPECT_EQ(tree.path_to(dst), query.path_to(dst));
            if (query.reachable(dst)) {
                any_reachable = true;
                EXPECT_EQ(query.latency_s[static_cast<std::size_t>(dst)], d);
            } else {
                any_unreachable = true;
                EXPECT_EQ(d, std::numeric_limits<double>::infinity());
            }
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
    const auto tree = point_query(snap, g0, g1);
    ASSERT_TRUE(tree.reachable(g1));
    EXPECT_NEAR(tree.latency_s[static_cast<std::size_t>(g1)], 0.005, 1e-12);
    EXPECT_EQ(tree.path_to(g1), (std::vector<int>{1, 0, 2})); // two hops
}

TEST(Routing, TargetBoundedTreesMatchTheFullPassOnMaskedWalkerSnapshots)
{
    // Randomly masked Walker +Grid snapshots, half of them with latencies
    // snapped to multiples of 2^-10 s so that sums are exact and equal-cost
    // paths tie bit for bit. For every listed target — duplicates, the
    // source itself and unreachable nodes included — the bounded pass must
    // return the full pass's path and latency exactly. Both passes must
    // also equal the binary-heap reference over their whole arrays, which
    // pins the (latency, node id) tie order on the snapped trials.
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

        for (int query = 0; query < 6; ++query) {
            const int src = static_cast<int>(draws.uniform_int(0, n_nodes - 1));
            const auto full = single_source_routes(snap, src);
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

            const auto bounded = single_source_routes(snap, src, targets);
            EXPECT_EQ(bounded.source, src);
            {
                SCOPED_TRACE(::testing::Message() << "trial " << trial << " source " << src);
                expect_same_tree(full, reference_dijkstra(snap, src));
                expect_same_tree(bounded, reference_dijkstra(snap, src, targets));
            }
            for (const int t : targets) {
                const auto ti = static_cast<std::size_t>(t);
                EXPECT_EQ(bounded.latency_s[ti], full.latency_s[ti])
                    << "trial " << trial << " source " << src << " target " << t;
                EXPECT_EQ(bounded.path_to(t), full.path_to(t))
                    << "trial " << trial << " source " << src << " target " << t;
                saw_unreachable |= !full.reachable(t);
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
    // costs and +inf on a random tenth of the links. The cost-span pass
    // must return, bit for bit, the tree of a plain pass over the snapshot
    // rebuilt from the finite-cost links, in link order, with those costs
    // as latencies: an infinite cost is a link that is not there. Every
    // tree must also equal the binary-heap reference's, and so must the
    // cost-span pass bounded to every node (a full pass under the costs).
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
    constexpr double inf = std::numeric_limits<double>::infinity();

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
        std::vector<int> every_node(static_cast<std::size_t>(snap.n_nodes()));
        for (int v = 0; v < snap.n_nodes(); ++v) every_node[static_cast<std::size_t>(v)] = v;

        for (int query = 0; query < 4; ++query) {
            const int src = static_cast<int>(draws.uniform_int(0, snap.n_nodes() - 1));
            std::vector<int> targets;
            for (int g = 0; g < snap.n_ground; ++g) targets.push_back(snap.ground_node(g));
            targets.push_back(static_cast<int>(draws.uniform_int(0, snap.n_nodes() - 1)));
            const auto with_costs = single_source_routes(snap, src, targets, cost);
            const auto plain = single_source_routes(rebuilt, src, targets);
            EXPECT_EQ(with_costs.latency_s, plain.latency_s)
                << "trial " << trial << " source " << src;
            EXPECT_EQ(with_costs.prev, plain.prev) << "trial " << trial << " source " << src;
            SCOPED_TRACE(::testing::Message() << "trial " << trial << " source " << src);
            expect_same_tree(with_costs, reference_dijkstra(snap, src, targets, cost));
            expect_same_tree(plain, reference_dijkstra(rebuilt, src, targets));
            expect_same_tree(single_source_routes(snap, src, every_node, cost),
                             reference_dijkstra(snap, src, every_node, cost));
        }
    }
    EXPECT_GT(dropped, 0);

    const auto line = line_graph();
    const std::vector<int> target{3};
    const std::vector<double> short_costs{0.001, 0.002};
    EXPECT_THROW(single_source_routes(line, 0, target, short_costs), contract_violation);

    // A negative or NaN cost is rejected before the pass. Unchecked, the
    // triangle 0-1 (1 ms), 0-2 (3 ms), 1-2 (-2.5 ms) reads 1 ms to node 1
    // instead of 0.5 ms, and with the isolated node 3 listed the pass never
    // returns. +inf stays an absent link and -0 a zero cost.
    const auto triangle =
        make_network_snapshot(4, 0, {{0, 1, 0.001}, {0, 2, 0.003}, {1, 2, 0.001}});
    const std::vector<int> node_1{1};
    const std::vector<int> isolated{3};
    const std::vector<double> negative{0.001, 0.003, -0.0025};
    const std::vector<double> not_a_number{0.001, std::nan(""), 0.001};
    EXPECT_THROW(single_source_routes(triangle, 0, node_1, negative), contract_violation);
    EXPECT_THROW(single_source_routes(triangle, 0, isolated, negative), contract_violation);
    EXPECT_THROW(single_source_routes(triangle, 0, node_1, not_a_number), contract_violation);
    EXPECT_THROW(single_source_routes(triangle, 0, isolated, not_a_number), contract_violation);
    const std::vector<double> absent_and_zero{inf, 0.003, -0.0};
    const auto tree = single_source_routes(triangle, 0, node_1, absent_and_zero);
    EXPECT_EQ(tree.path_to(1), (std::vector<int>{0, 2, 1}));
    EXPECT_EQ(tree.latency_s[1], 0.003);
}

TEST(Routing, LatencyEditedNegativeAfterTheFactoryThrowsInsteadOfLooping)
{
    // The factory rejects a negative latency; one written into the table
    // afterwards reaches the pass, whose monotone queue refuses the key
    // below its last pop, so the call throws rather than cycling forever.
    auto triangle =
        make_network_snapshot(4, 0, {{0, 1, 0.001}, {0, 2, 0.003}, {1, 2, 0.001}});
    triangle.links[2].latency_s = -0.0025;
    const std::vector<int> isolated{3};
    EXPECT_THROW(single_source_routes(triangle, 0), contract_violation);
    EXPECT_THROW(single_source_routes(triangle, 0, isolated), contract_violation);
}

TEST(Routing, MatchesTheBinaryHeapReferenceOnAnSsSnapshotOfTheNetworkDayShape)
{
    // An SS shell of the network_day size: 130 planes of 25 satellites
    // spread over the day in LTAN, 12 gateways, one snapshot at the epoch.
    // From every gateway, the full pass and the pass bounded to the other
    // gateways must equal the binary-heap reference over their whole
    // arrays, with latencies as built and snapped to multiples of 2^-10 s
    // (exact sums, so equal-latency paths tie), and under a seeded cost
    // span with +inf on a tenth of the links.
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
        c = draws.bernoulli(0.1) ? std::numeric_limits<double>::infinity()
                                 : draws.uniform(1.0e-4, 1.0e-2);

    bool saw_tie = false;
    for (const auto* snap : {&as_built, &snapped}) {
        for (int g = 0; g < snap->n_ground; ++g) {
            SCOPED_TRACE(::testing::Message() << (snap == &snapped ? "snapped" : "as built")
                                              << ", gateway " << g);
            const int src = snap->ground_node(g);
            std::vector<int> gateways;
            for (int h = 0; h < snap->n_ground; ++h)
                if (h != g) gateways.push_back(snap->ground_node(h));
            const auto full = single_source_routes(*snap, src);
            expect_same_tree(full, reference_dijkstra(*snap, src));
            expect_same_tree(single_source_routes(*snap, src, gateways),
                             reference_dijkstra(*snap, src, gateways));
            expect_same_tree(single_source_routes(*snap, src, gateways, cost),
                             reference_dijkstra(*snap, src, gateways, cost));
            // A node with a second predecessor at equal latency: only the
            // settle order chose between them.
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

TEST(Routing, TargetBoundedTreeEdgeCases)
{
    const auto snap = line_graph();
    // No targets: nothing to settle beyond the source's own entry.
    const auto none = single_source_routes(snap, 0, {});
    EXPECT_EQ(none.path_to(0), std::vector<int>{0});
    EXPECT_FALSE(none.reachable(3));
    // The pass stops at the target: the far side stays unsettled.
    const std::vector<int> near{1};
    const auto bounded = single_source_routes(snap, 0, near);
    EXPECT_EQ(bounded.path_to(1), (std::vector<int>{0, 1}));
    EXPECT_FALSE(bounded.reachable(2));
    const std::vector<int> bad{4};
    EXPECT_THROW(single_source_routes(snap, 0, bad), contract_violation);
    EXPECT_THROW(single_source_routes(snap, 9, near), contract_violation);

    // Target 1 is first queued at 5 ms, then settles at 2 ms via node 2;
    // its stale 5 ms entry pops before target 4 (first queued at 20 ms)
    // settles at 7 ms via node 3, and must not count as a settled target.
    const auto stale = make_network_snapshot(5, 0,
                                             {{0, 1, 0.005},
                                              {0, 2, 0.001},
                                              {2, 1, 0.001},
                                              {0, 3, 0.006},
                                              {3, 4, 0.001},
                                              {0, 4, 0.020}});
    const std::vector<int> near_and_far{1, 4};
    const auto tree = single_source_routes(stale, 0, near_and_far);
    EXPECT_EQ(tree.path_to(1), (std::vector<int>{0, 2, 1}));
    EXPECT_EQ(tree.path_to(4), (std::vector<int>{0, 3, 4}));
    EXPECT_EQ(tree.latency_s[4], single_source_routes(stale, 0).latency_s[4]);
}

} // namespace
} // namespace ssplane::lsn
