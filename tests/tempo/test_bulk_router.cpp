#include "tempo/bulk_router.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/expects.h"

namespace ssplane::tempo {
namespace {

/// Link (a, b) with its latency in milliseconds.
lsn::network_snapshot::link ms_link(int a, int b, double latency_ms)
{
    return {a, b, latency_ms / 1000.0};
}

/// 2-satellite / 2-ground snapshot over `links`; tests wire links per step.
lsn::network_snapshot two_by_two(std::vector<lsn::network_snapshot::link> links)
{
    return lsn::make_network_snapshot(2, 2, std::move(links));
}

/// g0 -- s0 -- s1 -- g1 chain.
lsn::network_snapshot chain_snapshot()
{
    return two_by_two({ms_link(2, 0, 3.0),   // g0 - s0 uplink
                       ms_link(0, 1, 5.0),   // s0 - s1 ISL
                       ms_link(1, 3, 3.0)}); // s1 - g1 uplink
}

constexpr double step_s = 600.0;

std::vector<double> grid(int n_steps)
{
    std::vector<double> offsets;
    for (int i = 0; i < n_steps; ++i) offsets.push_back(i * step_s);
    return offsets;
}

bulk_route_options chain_options()
{
    bulk_route_options opts;
    opts.capacity.isl_capacity_gbps = 10.0;
    opts.capacity.uplink_capacity_gbps = 10.0;
    opts.sat_buffer_gb = 1.0e6;
    return opts;
}

TEST(BulkRouter, DeliversWithinOneStepWhenCapacitySuffices)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot()};
    auto graph = build_time_expanded_graph_timeline(snaps, grid(2), {}, chain_options());

    // 1000 Gb against 10 Gbps * 600 s = 6000 Gb per link-step: one path.
    const bulk_transfer_request request{0, 1, 1000.0, 0.0, 2.0 * step_s};
    const auto result = route_bulk_transfers(graph, {&request, 1});

    ASSERT_EQ(result.requests.size(), 1u);
    const auto& r = result.requests[0];
    EXPECT_DOUBLE_EQ(r.delivered_gb, 1000.0);
    EXPECT_DOUBLE_EQ(r.delivered_fraction, 1.0);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.n_paths, 1);
    EXPECT_DOUBLE_EQ(r.completion_s, step_s); // end of the release step
    EXPECT_DOUBLE_EQ(result.delivered_fraction, 1.0);
    // No buffering was needed: everything moved within one step.
    EXPECT_DOUBLE_EQ(result.max_buffer_gb, 0.0);
}

TEST(BulkRouter, VolumePulseSpillsToLaterSteps)
{
    // 15000 Gb >> 6000 Gb per link-step: the pulse exceeds instantaneous
    // capacity and must water-fill across the three steps' link capacity.
    const std::vector<lsn::network_snapshot> snaps{
        chain_snapshot(), chain_snapshot(), chain_snapshot()};
    auto graph = build_time_expanded_graph_timeline(snaps, grid(3), {}, chain_options());

    const bulk_transfer_request request{0, 1, 15000.0, 0.0, 3.0 * step_s};
    const auto result = route_bulk_transfers(graph, {&request, 1});

    const auto& r = result.requests[0];
    EXPECT_DOUBLE_EQ(r.delivered_gb, 15000.0);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.n_paths, 3);
    EXPECT_DOUBLE_EQ(r.completion_s, 3.0 * step_s);

    // A tighter deadline cuts the last step's capacity away.
    graph.reset_loads();
    const bulk_transfer_request tight{0, 1, 15000.0, 0.0, 2.0 * step_s};
    const auto cut = route_bulk_transfers(graph, {&tight, 1});
    EXPECT_DOUBLE_EQ(cut.requests[0].delivered_gb, 12000.0);
    EXPECT_FALSE(cut.requests[0].complete);
    EXPECT_NEAR(cut.requests[0].delivered_fraction, 12000.0 / 15000.0, 1e-12);
}

TEST(BulkRouter, CountsRequestsThePathCapTruncates)
{
#if defined(SSPLANE_OBS_DISABLED)
    GTEST_SKIP() << "work counters compile away under -DSSPLANE_OBS=OFF";
#else
    // The 15000 Gb pulse takes one augmenting path per step. Capped at two
    // paths it stops with 3000 Gb left; capped at three, or at the default
    // cap, it completes, and a deadline that cuts it off stops it short of
    // the cap.
    const auto hits = [] {
        return obs::registry::instance().get_counter("tempo.bulk.path_cap_hits").value();
    };
    const std::vector<lsn::network_snapshot> snaps{
        chain_snapshot(), chain_snapshot(), chain_snapshot()};
    const bulk_transfer_request request{0, 1, 15000.0, 0.0, 3.0 * step_s};
    auto capped_options = chain_options();
    capped_options.max_paths_per_request = 2;
    auto capped = build_time_expanded_graph_timeline(snaps, grid(3), {}, capped_options);
    obs::registry::instance().reset();
    const auto cut = route_bulk_transfers(capped, {&request, 1});
    EXPECT_EQ(cut.requests[0].n_paths, 2);
    EXPECT_DOUBLE_EQ(cut.requests[0].delivered_gb, 12000.0);
    EXPECT_EQ(hits(), 1u);

    capped_options.max_paths_per_request = 3;
    auto exact = build_time_expanded_graph_timeline(snaps, grid(3), {}, capped_options);
    const auto done = route_bulk_transfers(exact, {&request, 1});
    EXPECT_EQ(done.requests[0].n_paths, 3);
    EXPECT_TRUE(done.requests[0].complete);
    auto graph = build_time_expanded_graph_timeline(snaps, grid(3), {}, chain_options());
    EXPECT_TRUE(route_bulk_transfers(graph, {&request, 1}).requests[0].complete);
    graph.reset_loads();
    const bulk_transfer_request tight{0, 1, 15000.0, 0.0, 2.0 * step_s};
    EXPECT_FALSE(route_bulk_transfers(graph, {&tight, 1}).requests[0].complete);
    EXPECT_EQ(hits(), 1u);
#endif
}

/// Step 0: only g0 -- s0 (uplink, no path onward). Step 1: only s0 -- g1.
/// No single step ever contains a full ground-to-ground path, so delivery
/// is possible *only* by buffering on s0 across the step boundary.
std::vector<lsn::network_snapshot> disconnected_relay_snapshots()
{
    return {two_by_two({ms_link(2, 0, 3.0)}), two_by_two({ms_link(0, 3, 3.0)})};
}

TEST(BulkRouter, StoreAndForwardCrossesSnapshotsNoSingleStepPathExists)
{
    auto graph = build_time_expanded_graph_timeline(disconnected_relay_snapshots(),
                                                    grid(2), {}, chain_options());
    const bulk_transfer_request request{0, 1, 500.0, 0.0, 2.0 * step_s};
    const auto result = route_bulk_transfers(graph, {&request, 1});

    const auto& r = result.requests[0];
    EXPECT_DOUBLE_EQ(r.delivered_gb, 500.0);
    EXPECT_TRUE(r.complete);
    EXPECT_DOUBLE_EQ(r.completion_s, 2.0 * step_s);
    // The whole volume was staged on s0 between the steps.
    EXPECT_DOUBLE_EQ(result.max_buffer_gb, 500.0);
    EXPECT_DOUBLE_EQ(result.sat_buffer_high_water_gb[0], 500.0);

    // The per-step replication of the snapshot greedy delivers nothing: no
    // step has a complete path — the store-and-forward acceptance contrast.
    const auto baseline = route_bulk_transfers_per_step_baseline(
        disconnected_relay_snapshots(), grid(2), {&request, 1}, chain_options());
    EXPECT_DOUBLE_EQ(baseline.requests[0].delivered_gb, 0.0);
    EXPECT_GT(r.delivered_gb, baseline.requests[0].delivered_gb);
}

TEST(BulkRouter, BufferCapacityGatesStagedVolume)
{
    auto opts = chain_options();
    opts.sat_buffer_gb = 120.0;
    auto graph = build_time_expanded_graph_timeline(disconnected_relay_snapshots(),
                                                    grid(2), {}, opts);
    const bulk_transfer_request request{0, 1, 500.0, 0.0, 2.0 * step_s};
    const auto result = route_bulk_transfers(graph, {&request, 1});

    // Only what fits in the buffer can cross the boundary; the high-water
    // mark respects the configured limit.
    EXPECT_DOUBLE_EQ(result.requests[0].delivered_gb, 120.0);
    EXPECT_FALSE(result.requests[0].complete);
    EXPECT_LE(result.max_buffer_gb, opts.sat_buffer_gb);
}

TEST(BulkRouter, ReleaseAndDeadlineClampTheWindow)
{
    const std::vector<lsn::network_snapshot> snaps{
        chain_snapshot(), chain_snapshot(), chain_snapshot()};
    auto graph = build_time_expanded_graph_timeline(snaps, grid(3), {}, chain_options());

    // Released mid-sweep: only steps 1 and 2 carry volume.
    const bulk_transfer_request late{0, 1, 15000.0, step_s, 3.0 * step_s};
    const auto result = route_bulk_transfers(graph, {&late, 1});
    EXPECT_DOUBLE_EQ(result.requests[0].delivered_gb, 12000.0);

    // A deadline before any step can complete delivers nothing.
    graph.reset_loads();
    const bulk_transfer_request hopeless{0, 1, 100.0, 0.0, 0.5 * step_s};
    const auto none = route_bulk_transfers(graph, {&hopeless, 1});
    EXPECT_DOUBLE_EQ(none.requests[0].delivered_gb, 0.0);
    EXPECT_DOUBLE_EQ(none.requests[0].completion_s, 0.0);
    EXPECT_EQ(none.requests[0].n_paths, 0);
}

TEST(BulkRouter, EarlierRequestsHavePriorityOnSharedBottlenecks)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot()};
    auto graph = build_time_expanded_graph_timeline(snaps, grid(2), {}, chain_options());

    // Both want the same 2 * 6000 Gb chain; 9000 + 9000 > 12000 total.
    const bulk_transfer_request requests[] = {
        {0, 1, 9000.0, 0.0, 2.0 * step_s},
        {1, 0, 9000.0, 0.0, 2.0 * step_s},
    };
    const auto result = route_bulk_transfers(graph, {requests, 2});
    EXPECT_DOUBLE_EQ(result.requests[0].delivered_gb, 9000.0);
    EXPECT_DOUBLE_EQ(result.requests[1].delivered_gb, 3000.0);
    EXPECT_DOUBLE_EQ(result.delivered_gb, 12000.0);
    EXPECT_NEAR(result.delivered_fraction, 12000.0 / 18000.0, 1e-12);
}

TEST(BulkRouter, PerStepBaselineMatchesOnAlwaysConnectedChains)
{
    // With a full path in every step and no need to buffer, both contenders
    // see the same per-step capacity.
    const std::vector<lsn::network_snapshot> snaps{
        chain_snapshot(), chain_snapshot(), chain_snapshot()};
    const auto offsets = grid(3);
    const bulk_transfer_request request{0, 1, 15000.0, 0.0, 3.0 * step_s};

    auto graph = build_time_expanded_graph_timeline(snaps, offsets, {}, chain_options());
    const auto expanded = route_bulk_transfers(graph, {&request, 1});
    const auto baseline = route_bulk_transfers_per_step_baseline(
        snaps, offsets, {&request, 1}, chain_options());

    EXPECT_DOUBLE_EQ(expanded.requests[0].delivered_gb, 15000.0);
    EXPECT_DOUBLE_EQ(baseline.requests[0].delivered_gb, 15000.0);
    EXPECT_DOUBLE_EQ(baseline.requests[0].completion_s,
                     expanded.requests[0].completion_s);
    // The baseline never buffers on satellites.
    EXPECT_DOUBLE_EQ(baseline.max_buffer_gb, 0.0);
}

TEST(BulkRouter, PriorityOrderCanLeaveStoreAndForwardBelowTheFloor)
{
    // One satellite relays gateways A, B and C over two 1800 s steps; each
    // 40 Gbps uplink moves 72,000 Gb per step. The wide-window A->C request
    // comes first and takes A's step-0 uplink, which the narrow-window
    // A->B request needed. The per-step floor offers step 0 to both at once
    // (its assignment fills A->B there) and sends A->C at step 1. Reversed,
    // both deliver everything.
    const lsn::network_snapshot relay = lsn::make_network_snapshot(
        1, 3, {ms_link(1, 0, 3.0), ms_link(2, 0, 3.0), ms_link(3, 0, 3.0)});
    const std::vector<lsn::network_snapshot> snaps{relay, relay};
    const std::vector<double> offsets{0.0, 1800.0};
    bulk_route_options opts;
    opts.capacity.uplink_capacity_gbps = 40.0;
    const bulk_transfer_request a_to_c{0, 2, 72000.0, 0.0, 3600.0};
    const bulk_transfer_request a_to_b{0, 1, 72000.0, 0.0, 1800.0};

    const auto deliver = [&](std::vector<bulk_transfer_request> requests) {
        auto graph = build_time_expanded_graph_timeline(snaps, offsets, {}, opts);
        return std::pair{
            route_bulk_transfers(graph, requests).delivered_gb,
            route_bulk_transfers_per_step_baseline(snaps, offsets, requests, opts)
                .delivered_gb};
    };
    const auto [wide_first, floor_wide_first] = deliver({a_to_c, a_to_b});
    EXPECT_DOUBLE_EQ(wide_first, 72000.0);
    EXPECT_DOUBLE_EQ(floor_wide_first, 144000.0);
    const auto [narrow_first, floor_narrow_first] = deliver({a_to_b, a_to_c});
    EXPECT_DOUBLE_EQ(narrow_first, 144000.0);
    EXPECT_DOUBLE_EQ(floor_narrow_first, 144000.0);
}

TEST(BulkRouter, RejectsMalformedRequests)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot()};
    auto graph = build_time_expanded_graph_timeline(snaps, grid(2), {}, chain_options());

    bulk_transfer_request bad{0, 0, 100.0, 0.0, step_s}; // src == dst
    EXPECT_THROW(route_bulk_transfers(graph, {&bad, 1}), contract_violation);
    bad = {0, 5, 100.0, 0.0, step_s}; // dst out of range
    EXPECT_THROW(route_bulk_transfers(graph, {&bad, 1}), contract_violation);
    bad = {0, 1, -5.0, 0.0, step_s}; // non-positive volume
    EXPECT_THROW(route_bulk_transfers(graph, {&bad, 1}), contract_violation);
    bad = {0, 1, 100.0, step_s, step_s}; // deadline not after release
    EXPECT_THROW(route_bulk_transfers(graph, {&bad, 1}), contract_violation);
    EXPECT_THROW(route_bulk_transfers_per_step_baseline(snaps, grid(2), {&bad, 1},
                                                        chain_options()),
                 contract_violation);
}

} // namespace
} // namespace ssplane::tempo
