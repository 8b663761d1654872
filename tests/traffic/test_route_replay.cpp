#include "traffic/flow_assignment.h"

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "equivalence_fixtures.h"
#include "lsn/scenario.h"
#include "obs/metrics.h"
#include "reference_flow_assignment.h"
#include "util/angles.h"

namespace ssplane::traffic {
namespace {

#ifndef SSPLANE_OBS_DISABLED
std::uint64_t counter_value(const char* name)
{
    return obs::registry::instance().get_counter(name).value();
}
#endif

/// Link (a, b) with its latency in milliseconds.
lsn::network_snapshot::link ms_link(int a, int b, double latency_ms)
{
    return {a, b, latency_ms / 1000.0};
}

/// The masking rule of `lsn::sweep_geometry::snapshot` on hand-built
/// links: drop every link with a failed satellite end, keep the rest in
/// order.
lsn::network_snapshot masked(int n_satellites, int n_ground,
                             const std::vector<lsn::network_snapshot::link>& links,
                             std::span<const std::uint8_t> mask)
{
    const auto alive = [&](int node) {
        return node >= n_satellites || mask[static_cast<std::size_t>(node)] == 0;
    };
    std::vector<lsn::network_snapshot::link> kept;
    for (const auto& link : links)
        if (alive(link.a) && alive(link.b)) kept.push_back(link);
    return lsn::make_network_snapshot(n_satellites, n_ground, std::move(kept));
}

/// `got` computes what the plain loop computes on the same inputs.
void expect_matches_reference(const flow_result& got, const lsn::network_snapshot& snapshot,
                              const traffic_matrix& matrix,
                              const capacity_options& options)
{
    const auto want = reference_assign_flows(snapshot, matrix, options);
    EXPECT_EQ(got.delivered_gbps, want.delivered_gbps);
    EXPECT_EQ(got.latency_flow_sum_gbps_s, want.latency_flow_sum_gbps_s);
    EXPECT_EQ(got.pair_delivered_gbps, want.pair_delivered_gbps);
    std::vector<double> loads;
    for (const auto& link : got.links) loads.push_back(link.load_gbps);
    EXPECT_EQ(loads, want.link_load_gbps);
    std::vector<std::uint8_t> queried(want.on_queried_path.size(), 0);
    for (const int v : got.routes.nodes) queried.at(static_cast<std::size_t>(v)) = 1;
    EXPECT_EQ(queried, want.on_queried_path);
}

/// Every field of two assignments is equal, bit for bit.
void expect_same_flows(const flow_result& got, const flow_result& want)
{
    EXPECT_EQ(got.offered_gbps, want.offered_gbps);
    EXPECT_EQ(got.delivered_gbps, want.delivered_gbps);
    EXPECT_EQ(got.delivered_fraction, want.delivered_fraction);
    EXPECT_EQ(got.mean_path_latency_ms, want.mean_path_latency_ms);
    EXPECT_EQ(got.latency_flow_sum_gbps_s, want.latency_flow_sum_gbps_s);
    EXPECT_EQ(got.pair_delivered_gbps, want.pair_delivered_gbps);
    ASSERT_EQ(got.links.size(), want.links.size());
    for (std::size_t id = 0; id < got.links.size(); ++id) {
        EXPECT_EQ(got.links[id].capacity_gbps, want.links[id].capacity_gbps) << "link " << id;
        EXPECT_EQ(got.links[id].load_gbps, want.links[id].load_gbps) << "link " << id;
    }
    EXPECT_TRUE(got.routes == want.routes);
    EXPECT_EQ(got.n_stations, want.n_stations);
}

TEST(RouteReplay, MatchesTheReferenceAndAFreshAssignmentForEverySurvivingPlane)
{
    // Per fixture, three steps under seeded random-loss base masks (none,
    // 5% and 15% of the satellites), at an unsaturated and a
    // link-saturating demand: the base and every trial with one more
    // surviving plane failed equal the plain loop, and each trial replaying
    // the base equals its fresh assignment in every field, whether or not
    // the plane lay on a queried path.
    obs::registry::instance().reset();
    [[maybe_unused]] std::uint64_t fresh_runs = 0;
    [[maybe_unused]] std::uint64_t replayed_runs = 0;
    int replays = 0;
    for (const auto& fixture : equivalence_fixtures()) {
        SCOPED_TRACE(fixture.name);
        const auto& topo = fixture.topology;
        const lsn::sweep_geometry geometry(
            lsn::snapshot_builder(topo, stations_from_cities(8), astro::instant::j2000(),
                                  deg2rad(10.0)),
            {0.0, 7200.0, 14400.0});
        const int n = geometry.builder().n_satellites();
        for (int step = 0; step < geometry.n_steps(); ++step) {
            lsn::failure_scenario loss;
            loss.mode = lsn::failure_mode::random_loss;
            loss.loss_fraction = step == 0 ? 0.0 : 0.05 + 0.1 * (step - 1);
            loss.seed = static_cast<std::uint64_t>(7 + step);
            const auto base_mask = lsn::sample_failures(topo, loss);
            const auto base_snapshot = geometry.snapshot(step, base_mask);
            for (const double demand_gbps : {5.0, 2000.0}) {
                SCOPED_TRACE(::testing::Message()
                             << "step " << step << ", " << demand_gbps << " Gbps");
                traffic_matrix_options matrix_options;
                matrix_options.total_demand_gbps = demand_gbps;
                const auto matrix = build_traffic_matrix(
                    test_demand(), geometry.builder().stations(),
                    geometry.builder().epoch().plus_seconds(
                        geometry.offsets()[static_cast<std::size_t>(step)]),
                    matrix_options);
                const capacity_options capacity;
                const auto base = assign_flows(base_snapshot, matrix, capacity);
                expect_matches_reference(base, base_snapshot, matrix, capacity);
                for (int p = 0; p < lsn::plane_count(topo); ++p) {
                    auto mask = base_mask;
                    bool survives = false;
                    for (int s = 0; s < n; ++s) {
                        auto& failed = mask[static_cast<std::size_t>(s)];
                        if (topo.satellites[static_cast<std::size_t>(s)].plane != p) continue;
                        survives |= failed == 0;
                        failed = 1;
                    }
                    if (!survives) continue;
                    SCOPED_TRACE(::testing::Message() << "plane " << p);
                    const auto snapshot = geometry.snapshot(step, mask);
#ifndef SSPLANE_OBS_DISABLED
                    const auto runs = [] { return counter_value("lsn.dijkstra.runs"); };
                    const auto before = runs();
#endif
                    const auto fresh = assign_flows(snapshot, matrix, capacity);
#ifndef SSPLANE_OBS_DISABLED
                    const auto between = runs();
#endif
                    const auto replayed = assign_flows(snapshot, matrix, capacity,
                                                       {&base.routes, base_mask, mask});
#ifndef SSPLANE_OBS_DISABLED
                    fresh_runs += between - before;
                    replayed_runs += runs() - between;
#endif
                    expect_matches_reference(fresh, snapshot, matrix, capacity);
                    expect_same_flows(replayed, fresh);
                    ++replays;
                }
            }
        }
    }
    EXPECT_GT(replays, 150);
#ifndef SSPLANE_OBS_DISABLED
    // Not vacuous: trials reused trees and still ran some after diverging,
    // and cut-off pairs retired.
    EXPECT_GT(counter_value("traffic.adversary.reused_trees"), 0u);
    EXPECT_LT(replayed_runs, fresh_runs);
    EXPECT_GT(replayed_runs, 0u);
    EXPECT_GT(counter_value("traffic.assign.retired_pairs"), 0u);
#endif
}

TEST(RouteReplay, ASourceTheStrikeCutsOffDivergesItsRound)
{
    // Gateways g0..g2 = nodes 6..8 over satellites s0..s5; ISLs 10 Gbps,
    // uplinks 40 Gbps. g0 reaches the network only through s0, the struck
    // satellite. Pair (1,2) has three routes: A g1-s1-s2-g2 (3 ms), B
    // g1-s1-s3-s4-g2 (4 ms) and C g1-s1-s5-g2 (5 ms); pair (0,2) takes
    // g0-s0-s3-s4-g2, through B's s3-s4.
    //   Base, round one: (0,2) fills s3-s4, (1,2) fills A with 10 of its
    //   20 Gbps. Round two: B is saturated, so (1,2) takes C.
    //   Trial (s0 failed): round one retires (0,2), so source 0 runs no tree
    //   where the base ran one; (1,2)'s round-one tree is the base's, but
    //   round two finds B unloaded and takes it. Reusing the base's
    //   round-two tree would send the spill down C instead.
    const std::vector<lsn::network_snapshot::link> links{
        ms_link(6, 0, 1.0), ms_link(0, 3, 1.0),                      // g0-s0-s3
        ms_link(7, 1, 1.0), ms_link(1, 2, 1.0), ms_link(2, 8, 1.0), // A
        ms_link(1, 3, 1.0), ms_link(3, 4, 1.0), ms_link(4, 8, 1.0), // B
        ms_link(1, 5, 2.0), ms_link(5, 8, 2.0),                      // C
    };
    traffic_matrix matrix;
    matrix.n_stations = 3;
    matrix.demand_gbps = {0.0, 0.0, 10.0, 0.0, 0.0, 20.0, 10.0, 20.0, 0.0};
    capacity_options options;
    options.isl_capacity_gbps = 10.0;
    options.uplink_capacity_gbps = 40.0;
    const std::vector<std::uint8_t> base_mask(6, 0);
    const std::vector<std::uint8_t> mask{1, 0, 0, 0, 0, 0};

    const auto base_snapshot = masked(6, 3, links, base_mask);
    const auto base = assign_flows(base_snapshot, matrix, options);
    expect_matches_reference(base, base_snapshot, matrix, options);
    EXPECT_DOUBLE_EQ(base.delivered_gbps, 30.0);
    ASSERT_EQ(base.routes.trees.size(), 3u);
    EXPECT_EQ(std::vector<int>(base.routes.path(2).begin(), base.routes.path(2).end()),
              (std::vector<int>{7, 1, 5, 8}));

    const auto snapshot = masked(6, 3, links, mask);
    obs::registry::instance().reset();
    const auto replayed =
        assign_flows(snapshot, matrix, options, {&base.routes, base_mask, mask});
    const auto fresh = assign_flows(snapshot, matrix, options);
    expect_same_flows(replayed, fresh);
    expect_matches_reference(fresh, snapshot, matrix, options);
    EXPECT_DOUBLE_EQ(fresh.pair_delivered(1, 2), 20.0);
    EXPECT_DOUBLE_EQ(fresh.latency_flow_sum_gbps_s, 10.0 * 3e-3 + 10.0 * 4e-3);
    ASSERT_EQ(fresh.routes.trees.size(), 2u);
    EXPECT_EQ(std::vector<int>(fresh.routes.path(1).begin(), fresh.routes.path(1).end()),
              (std::vector<int>{7, 1, 3, 4, 8}));
#ifndef SSPLANE_OBS_DISABLED
    // Source 1's round-one tree was reused after source 0 diverged the
    // round; round two ran its tree. (0,2) retired in both assignments.
    EXPECT_EQ(counter_value("traffic.adversary.reused_trees"), 1u);
    EXPECT_EQ(counter_value("traffic.assign.retired_pairs"), 2u);
#endif
}

} // namespace
} // namespace ssplane::traffic
