#include "traffic/flow_assignment.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../lsn/capped_topology.h"
#include "lsn/scenario.h"
#include "obs/metrics.h"
#include "reference_flow_assignment.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/rng.h"

namespace ssplane::traffic {
namespace {

/// Link (a, b) with its latency in milliseconds.
lsn::network_snapshot::link ms_link(int a, int b, double latency_ms)
{
    return {a, b, latency_ms / 1000.0};
}

/// ground0 -- sat0 -- sat1 -- ground1 chain (one path, one ISL).
lsn::network_snapshot chain_snapshot()
{
    return lsn::make_network_snapshot(2, 2,
                                      {ms_link(2, 0, 3.0),   // g0 - s0 uplink
                                       ms_link(0, 1, 5.0),   // s0 - s1 ISL
                                       ms_link(1, 3, 3.0)}); // s1 - g1 uplink
}

traffic_matrix single_pair_matrix(double demand_gbps)
{
    traffic_matrix matrix;
    matrix.n_stations = 2;
    matrix.demand_gbps = {0.0, demand_gbps, demand_gbps, 0.0};
    return matrix;
}

TEST(FlowAssignment, DeliversWithinCapacity)
{
    capacity_options opts;
    opts.isl_capacity_gbps = 20.0;
    opts.uplink_capacity_gbps = 40.0;
    const auto result = assign_flows(chain_snapshot(), single_pair_matrix(10.0), opts);

    EXPECT_DOUBLE_EQ(result.offered_gbps, 10.0);
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 10.0);
    EXPECT_DOUBLE_EQ(result.delivered_fraction, 1.0);
    EXPECT_DOUBLE_EQ(result.pair_delivered(0, 1), 10.0);
    // The single ISL (link 1) carries the whole flow at 10/20 utilization,
    // the most of any link; the two uplinks run at 10/40.
    ASSERT_EQ(result.links.size(), 3u);
    EXPECT_DOUBLE_EQ(result.links[0].utilization(), 0.25);
    EXPECT_DOUBLE_EQ(result.links[1].utilization(), 0.5);
    EXPECT_DOUBLE_EQ(result.links[2].utilization(), 0.25);
    EXPECT_NEAR(result.mean_path_latency_ms, 11.0, 1e-12);
}

TEST(FlowAssignment, CapacityBoundsDeliveredThroughput)
{
    capacity_options opts;
    opts.isl_capacity_gbps = 6.0;
    opts.uplink_capacity_gbps = 40.0;
    opts.k_rounds = 4;
    const auto result = assign_flows(chain_snapshot(), single_pair_matrix(10.0), opts);

    // The only path's bottleneck is the 6 Gbps ISL; the spill has nowhere
    // to go in later rounds.
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 6.0);
    EXPECT_DOUBLE_EQ(result.delivered_fraction, 0.6);
    // The ISL is the one congested link; the uplinks run at 6/40.
    ASSERT_EQ(result.links.size(), 3u);
    EXPECT_DOUBLE_EQ(result.links[1].utilization(), 1.0);
    EXPECT_DOUBLE_EQ(result.links[0].utilization(), 6.0 / 40.0);
    EXPECT_DOUBLE_EQ(result.links[2].utilization(), 6.0 / 40.0);
    EXPECT_NEAR(result.mean_path_latency_ms, 11.0, 1e-12);
}

/// Two disjoint ground-to-ground paths: via sat0 (shorter) or sat1.
lsn::network_snapshot diamond_snapshot()
{
    return lsn::make_network_snapshot(2, 2,
                                      {ms_link(2, 0, 3.0),   // g0 - s0
                                       ms_link(0, 3, 3.0),   // s0 - g1  (total 6 ms)
                                       ms_link(2, 1, 4.0),   // g0 - s1
                                       ms_link(1, 3, 4.0)}); // s1 - g1  (total 8 ms)
}

TEST(FlowAssignment, SpillsToAlternatePathsAcrossRounds)
{
    capacity_options opts;
    opts.uplink_capacity_gbps = 10.0;
    opts.isl_capacity_gbps = 10.0;
    opts.k_rounds = 2;
    const auto result = assign_flows(diamond_snapshot(), single_pair_matrix(15.0), opts);

    // Round 1 fills the short path (10), round 2 spills 5 onto the long one.
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 15.0);
    EXPECT_DOUBLE_EQ(result.delivered_fraction, 1.0);
    EXPECT_NEAR(result.mean_path_latency_ms, (10.0 * 6.0 + 5.0 * 8.0) / 15.0, 1e-12);

    // A single round can only use the shortest path.
    opts.k_rounds = 1;
    const auto one_round =
        assign_flows(diamond_snapshot(), single_pair_matrix(15.0), opts);
    EXPECT_DOUBLE_EQ(one_round.delivered_gbps, 10.0);
}

TEST(FlowAssignment, CountsAssignmentsTheRoundCapTruncates)
{
#if defined(SSPLANE_OBS_DISABLED)
    GTEST_SKIP() << "work counters compile away under -DSSPLANE_OBS=OFF";
#else
    // 15 Gbps over the diamond's two 10 Gbps paths: one round fills the
    // short path and stops owing 5 Gbps, the cap truncating it; two rounds
    // deliver everything. A 6 Gbps chain ISL leaves 4 Gbps owed after round
    // one, but round two places nothing and stops short of four rounds.
    const auto hits = [] {
        return obs::registry::instance()
            .get_counter("traffic.assign.round_cap_hits")
            .value();
    };
    capacity_options opts;
    opts.uplink_capacity_gbps = 10.0;
    opts.isl_capacity_gbps = 10.0;
    obs::registry::instance().reset();
    opts.k_rounds = 1;
    EXPECT_DOUBLE_EQ(
        assign_flows(diamond_snapshot(), single_pair_matrix(15.0), opts).delivered_gbps,
        10.0);
    EXPECT_EQ(hits(), 1u);

    opts.k_rounds = 2;
    EXPECT_DOUBLE_EQ(
        assign_flows(diamond_snapshot(), single_pair_matrix(15.0), opts).delivered_gbps,
        15.0);
    opts.isl_capacity_gbps = 6.0;
    opts.k_rounds = 4;
    EXPECT_DOUBLE_EQ(
        assign_flows(chain_snapshot(), single_pair_matrix(10.0), opts).delivered_gbps,
        6.0);
    EXPECT_EQ(hits(), 1u);
#endif
}

TEST(FlowAssignment, UnreachablePairsDeliverNothing)
{
    // Only g0 sees the satellite.
    const auto snap = lsn::make_network_snapshot(1, 2, {ms_link(1, 0, 3.0)});

    const auto result = assign_flows(snap, single_pair_matrix(10.0));
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 0.0);
    EXPECT_DOUBLE_EQ(result.delivered_fraction, 0.0);
    EXPECT_DOUBLE_EQ(result.pair_delivered(0, 1), 0.0);
}

TEST(FlowAssignment, ReportsQueriedPathsThatCarriedNoFlow)
{
    // Gateways g0..g2 = nodes 5..7 over satellites s0..s4, every link
    // 10 Gbps, 10 Gbps offered per pair. Round one, frozen weights: (0,1)
    // fills g0-s0-s1-g1, so (0,2)'s tree path g0-s0-s1-s2-g2 carries
    // nothing, then (1,2) fills g1-s4-g2. Round two finds no path left.
    const auto build = [](bool with_s2) {
        std::vector<lsn::network_snapshot::link> links{
            ms_link(5, 0, 1.0), ms_link(0, 1, 1.0), ms_link(1, 6, 1.0)};
        if (with_s2) {
            links.push_back(ms_link(1, 2, 1.0));
            links.push_back(ms_link(2, 7, 1.5));
        }
        for (const auto& link : {ms_link(5, 3, 2.0), ms_link(3, 4, 2.0),
                                 ms_link(4, 7, 2.0), ms_link(6, 4, 1.0)})
            links.push_back(link);
        return lsn::make_network_snapshot(5, 3, std::move(links));
    };
    traffic_matrix matrix;
    matrix.n_stations = 3;
    matrix.demand_gbps = {0.0, 10.0, 10.0, 10.0, 0.0, 10.0, 10.0, 10.0, 0.0};
    capacity_options opts;
    opts.isl_capacity_gbps = 10.0;
    opts.uplink_capacity_gbps = 10.0;

    const auto base = assign_flows(build(true), matrix, opts);
    EXPECT_DOUBLE_EQ(base.pair_delivered(0, 2), 0.0);
    EXPECT_DOUBLE_EQ(base.pair_delivered(1, 2), 10.0);
    std::vector<std::uint8_t> queried(8, 0);
    for (const int v : base.routes.nodes) queried.at(static_cast<std::size_t>(v)) = 1;
    EXPECT_EQ(queried, (std::vector<std::uint8_t>{1, 1, 1, 0, 1, 1, 1, 1}));
    // Round one's two trees, in loop order, and nothing after: round two
    // retires every pair still owed, since g0 and g1 are cut off.
    ASSERT_EQ(base.routes.trees.size(), 2u);
    EXPECT_EQ(base.routes.owed, (std::vector<int>{1, 2, 2}));
    EXPECT_EQ(std::vector<int>(base.routes.path(1).begin(), base.routes.path(1).end()),
              (std::vector<int>{5, 0, 1, 2, 7}));

    // s2 lay only on the zero-flow path, yet failing it re-routes (0,2)
    // onto g0-s3-s4-g2 in round one and starves (1,2): a pruning rule that
    // ignored zero-flow paths would miss this change.
    const auto without_s2 = assign_flows(build(false), matrix, opts);
    EXPECT_DOUBLE_EQ(without_s2.pair_delivered(0, 2), 10.0);
    EXPECT_DOUBLE_EQ(without_s2.pair_delivered(1, 2), 0.0);
}

TEST(FlowAssignment, RetiresThePairsOfAGatewayWhoseUplinksSaturate)
{
    // Gateways g0..g2 = nodes 2..4; g0 sees only s0, g1 and g2 see both
    // satellites (s0 at 1 ms, s1 at 2 ms); uplinks 40 Gbps, 30 Gbps offered
    // on g0's pairs and 60 Gbps on (1,2). Round one: (0,1) takes 30 Gbps
    // and (0,2) the last 10 of g0's uplink, (1,2) 10 via s0. Round two: g0
    // is cut off, so (0,2) retires with 20 Gbps owed and source 0 runs no
    // tree; (1,2) takes 40 via s1. Round three: g1 is cut off too, (1,2)
    // retires, no tree runs, and the zero-yield round ends the assignment.
    const auto snapshot = lsn::make_network_snapshot(
        2, 3,
        {ms_link(2, 0, 1.0), ms_link(3, 0, 1.0), ms_link(4, 0, 1.0), ms_link(3, 1, 2.0),
         ms_link(4, 1, 2.0)});
    traffic_matrix matrix;
    matrix.n_stations = 3;
    matrix.demand_gbps = {0.0, 30.0, 30.0, 30.0, 0.0, 60.0, 30.0, 60.0, 0.0};

    obs::registry::instance().reset();
    const auto result = assign_flows(snapshot, matrix);
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 90.0);
    EXPECT_DOUBLE_EQ(result.pair_delivered(0, 2), 10.0);
    EXPECT_DOUBLE_EQ(result.pair_delivered(1, 2), 50.0);
    ASSERT_EQ(result.routes.trees.size(), 3u);
    EXPECT_EQ(result.routes.trees[2].round, 1);
    EXPECT_EQ(result.routes.trees[2].source, 1);
    [[maybe_unused]] const auto counter = [](const char* name) {
        return obs::registry::instance().get_counter(name).value();
    };
#ifndef SSPLANE_OBS_DISABLED
    EXPECT_EQ(counter("traffic.assign.retired_pairs"), 2u);
    EXPECT_EQ(counter("traffic.assign.rounds"), 3u);
    EXPECT_EQ(counter("lsn.dijkstra.runs"), 3u);
#endif

    // The plain loop places the same flow on the same links. It runs the
    // node-level reference Dijkstra, which counts nothing, so the counter
    // still reads the engine's three queries.
    const auto reference = reference_assign_flows(snapshot, matrix);
    EXPECT_EQ(result.delivered_gbps, reference.delivered_gbps);
    EXPECT_EQ(result.latency_flow_sum_gbps_s, reference.latency_flow_sum_gbps_s);
    EXPECT_EQ(result.pair_delivered_gbps, reference.pair_delivered_gbps);
    for (std::size_t id = 0; id < result.links.size(); ++id)
        EXPECT_EQ(result.links[id].load_gbps, reference.link_load_gbps[id]);
#ifndef SSPLANE_OBS_DISABLED
    EXPECT_EQ(counter("lsn.dijkstra.runs"), 3u);
#endif
}

TEST(FlowAssignment, DefaultCapacitiesCarryTheDiamondOnItsShortPath)
{
    // 15 Gbps fits the 40 Gbps uplinks of the 6 ms path in round one: the
    // 8 ms path stays empty.
    const auto result = assign_flows(diamond_snapshot(), single_pair_matrix(15.0));
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 15.0);
    EXPECT_DOUBLE_EQ(result.pair_delivered(0, 1), 15.0);
    EXPECT_NEAR(result.mean_path_latency_ms, 6.0, 1e-12);
    ASSERT_EQ(result.links.size(), 4u);
    EXPECT_DOUBLE_EQ(result.links[0].utilization(), 15.0 / 40.0);
    EXPECT_DOUBLE_EQ(result.links[1].utilization(), 15.0 / 40.0);
    EXPECT_DOUBLE_EQ(result.links[2].utilization(), 0.0);
    EXPECT_DOUBLE_EQ(result.links[3].utilization(), 0.0);
}

/// `shorter` lists the same trees, owed gateways and paths as the start
/// of `longer`.
void expect_record_prefix(const route_record& shorter, const route_record& longer)
{
    const auto is_prefix = [](const auto& a, const auto& b) {
        return a.size() <= b.size() && std::equal(a.begin(), a.end(), b.begin());
    };
    EXPECT_TRUE(is_prefix(shorter.trees, longer.trees));
    EXPECT_TRUE(is_prefix(shorter.owed, longer.owed));
    EXPECT_TRUE(is_prefix(shorter.path_begin, longer.path_begin));
    EXPECT_TRUE(is_prefix(shorter.nodes, longer.nodes));
}

TEST(FlowAssignment, InvariantsHoldOnRandomMasksPastCapacity)
{
    // 16 seeded random-loss masks (0-20% of the satellites) on each of three
    // shells, each mask at its own instant, offered up to 100 Gbps per
    // gateway pair: far past what the 40 Gbps uplinks can carry. The shells
    // are a 10x10 Walker +Grid, the same shell capped at three ISLs per
    // satellite, and a small SS design with two planes stacked at one LTAN,
    // whose twins share positions and join by zero-latency links. At every
    // round cap k in 1, 2, 4, 8, no link exceeds its capacity, no pair gets
    // more than it asked for, and the per-pair totals add up to the delivered
    // total, which never exceeds the offer. Rounds only add flow: delivered
    // never falls as k grows, and the k-round route record is a prefix of
    // the 2k-round one.
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 10;
    params.sats_per_plane = 10;
    params.phasing_f = 1;
    std::vector<constellation::ss_plane> planes;
    for (const double ltan_h : {0.0, 1.5, 3.0, 3.0, 4.5, 6.0, 7.5, 9.0})
        planes.push_back({560.0e3, ltan_h, 16, 0.0});
    const std::vector<std::pair<std::string, lsn::lsn_topology>> shells{
        {"walker +grid", lsn::build_walker_grid_topology(params)},
        {"capped walker", lsn::build_walker_capped_topology(params, 3)},
        {"stacked ss", lsn::build_ss_topology(planes, astro::instant::j2000())}};
    std::vector<double> offsets;
    for (int trial = 0; trial < 16; ++trial) offsets.push_back(900.0 * trial);
    constexpr double tol = 1e-9;

    bool saw_shortfall = false;
    for (const auto& [name, topo] : shells) {
        const lsn::snapshot_builder builder(topo, lsn::default_ground_stations(),
                                            astro::instant::j2000(), deg2rad(25.0));
        const auto positions = builder.positions_at_offsets(offsets);
        const int n = builder.n_ground();
        int zero_latency_links = 0;
        double delivered_total = 0.0;
        for (int trial = 0; trial < 16; ++trial) {
            SCOPED_TRACE(name + ", trial " + std::to_string(trial));
            lsn::failure_scenario loss;
            loss.mode = lsn::failure_mode::random_loss;
            loss.loss_fraction = 0.04 * (trial % 6);
            loss.seed = static_cast<std::uint64_t>(trial + 1);
            const auto snap = builder.snapshot_from_positions(
                positions[static_cast<std::size_t>(trial)],
                lsn::sample_failures(topo, loss));
            for (const auto& link : snap.links)
                zero_latency_links += link.latency_s == 0.0 ? 1 : 0;

            rng draws(static_cast<std::uint64_t>(100 + trial));
            traffic_matrix matrix;
            matrix.n_stations = n;
            matrix.demand_gbps.assign(static_cast<std::size_t>(n * n), 0.0);
            double offered = 0.0;
            for (int a = 0; a + 1 < n; ++a)
                for (int b = a + 1; b < n; ++b) {
                    const double demand = draws.uniform(0.0, 100.0);
                    matrix.demand_gbps[static_cast<std::size_t>(a * n + b)] = demand;
                    matrix.demand_gbps[static_cast<std::size_t>(b * n + a)] = demand;
                    offered += demand;
                }

            flow_result previous;
            for (const int k : {1, 2, 4, 8}) {
                SCOPED_TRACE("k_rounds " + std::to_string(k));
                capacity_options options;
                options.k_rounds = k;
                const auto result = assign_flows(snap, matrix, options);
                for (const auto& link : result.links)
                    EXPECT_LE(link.load_gbps, link.capacity_gbps + tol);
                double pair_sum = 0.0;
                for (int a = 0; a + 1 < n; ++a)
                    for (int b = a + 1; b < n; ++b) {
                        EXPECT_LE(result.pair_delivered(a, b), matrix.demand(a, b) + tol)
                            << "pair " << a << "-" << b;
                        EXPECT_EQ(result.pair_delivered(a, b), result.pair_delivered(b, a));
                        pair_sum += result.pair_delivered(a, b);
                    }
                EXPECT_NEAR(pair_sum, result.delivered_gbps, tol);
                EXPECT_LE(result.delivered_gbps, result.offered_gbps + tol);
                EXPECT_NEAR(result.offered_gbps, offered, tol);
                if (k > 1) {
                    EXPECT_GE(result.delivered_gbps, previous.delivered_gbps);
                    expect_record_prefix(previous.routes, result.routes);
                }
                previous = result;
            }
            delivered_total += previous.delivered_gbps;
            saw_shortfall |= previous.delivered_gbps < previous.offered_gbps - 1.0;
        }
        EXPECT_GT(delivered_total, 0.0) << name;
        EXPECT_EQ(zero_latency_links > 0, name == "stacked ss") << name;
    }
    EXPECT_TRUE(saw_shortfall);
}

TEST(FlowAssignment, RejectsMismatchedMatrix)
{
    traffic_matrix matrix;
    matrix.n_stations = 3;
    matrix.demand_gbps.assign(9, 0.0);
    EXPECT_THROW(assign_flows(chain_snapshot(), matrix), contract_violation);

    capacity_options opts;
    opts.k_rounds = 0;
    EXPECT_THROW(assign_flows(chain_snapshot(), single_pair_matrix(1.0), opts),
                 contract_violation);

    // A replay needs a base that ran under the same matrix and options, and
    // a mask (one entry per satellite) that fails every satellite the
    // base's did.
    const auto base = assign_flows(diamond_snapshot(), single_pair_matrix(15.0));
    const std::vector<std::uint8_t> none(2, 0);
    const std::vector<std::uint8_t> s0{1, 0};
    const std::vector<std::uint8_t> s1{0, 1};
    const route_replay replay{&base.routes, none, none};
    EXPECT_NO_THROW(assign_flows(diamond_snapshot(), single_pair_matrix(15.0), {}, replay));
    EXPECT_THROW(assign_flows(diamond_snapshot(), single_pair_matrix(16.0), {}, replay),
                 contract_violation);
    opts = {};
    opts.k_rounds = 3;
    EXPECT_THROW(assign_flows(diamond_snapshot(), single_pair_matrix(15.0), opts, replay),
                 contract_violation);
    EXPECT_THROW(assign_flows(diamond_snapshot(), single_pair_matrix(15.0), {},
                              {&base.routes, s0, s1}),
                 contract_violation);
    EXPECT_THROW(assign_flows(diamond_snapshot(), single_pair_matrix(15.0), {},
                              {&base.routes, none, {}}),
                 contract_violation);

    // A replayed path whose hop the snapshot lacks (the diamond's g0-s0-g1
    // onto the chain, which has no s0-g1 link) throws instead of indexing
    // the loads out of bounds.
    EXPECT_THROW(assign_flows(chain_snapshot(), single_pair_matrix(15.0), {}, replay),
                 contract_violation);
}

TEST(FlowAssignment, RejectsMalformedDemand)
{
    // Three gateways around one satellite. Unchecked, a -5 Gbps entry read
    // as 5 Gbps offered, 10 delivered and a delivered fraction of 2, and a
    // NaN entry as NaN offered, nothing delivered and a fraction of 1.
    const auto star = lsn::make_network_snapshot(
        1, 3, {ms_link(1, 0, 3.0), ms_link(2, 0, 3.0), ms_link(3, 0, 3.0)});
    traffic_matrix matrix;
    matrix.n_stations = 3;
    matrix.demand_gbps = {0.0, 5.0, 10.0, 5.0, 0.0, 0.0, 10.0, 0.0, 0.0};
    const auto fine = assign_flows(star, matrix);
    EXPECT_DOUBLE_EQ(fine.offered_gbps, 15.0);
    EXPECT_DOUBLE_EQ(fine.delivered_gbps, 15.0);

    const auto with_entry = [&](double demand) {
        traffic_matrix bad = matrix;
        bad.demand_gbps[1] = demand;
        bad.demand_gbps[3] = demand;
        return bad;
    };
    EXPECT_THROW(assign_flows(star, with_entry(-5.0)), contract_violation);
    EXPECT_THROW(assign_flows(star, with_entry(std::numeric_limits<double>::quiet_NaN())),
                 contract_violation);
    EXPECT_THROW(assign_flows(star, with_entry(std::numeric_limits<double>::infinity())),
                 contract_violation);

    traffic_matrix short_rows = matrix;
    short_rows.demand_gbps.pop_back();
    EXPECT_THROW(assign_flows(star, short_rows), contract_violation);
    traffic_matrix long_rows = matrix;
    long_rows.demand_gbps.push_back(0.0);
    EXPECT_THROW(assign_flows(star, long_rows), contract_violation);
}

TEST(FlowAssignment, ValidateRejectsDegenerateCapacityOptions)
{
    EXPECT_NO_THROW(validate(capacity_options{}));

    capacity_options opts;
    opts.isl_capacity_gbps = 0.0;
    EXPECT_THROW(validate(opts), contract_violation);
    opts = {};
    opts.isl_capacity_gbps = -5.0;
    EXPECT_THROW(validate(opts), contract_violation);
    opts = {};
    opts.uplink_capacity_gbps = 0.0;
    EXPECT_THROW(validate(opts), contract_violation);
    opts = {};
    opts.k_rounds = 0;
    EXPECT_THROW(validate(opts), contract_violation);
    opts = {};
    opts.k_rounds = -3;
    EXPECT_THROW(validate(opts), contract_violation);

    // Degenerate knobs are rejected at the assignment entry too, not just
    // by explicit validate() calls.
    opts = {};
    opts.uplink_capacity_gbps = -1.0;
    EXPECT_THROW(assign_flows(chain_snapshot(), single_pair_matrix(1.0), opts),
                 contract_violation);
}

} // namespace
} // namespace ssplane::traffic
