#include "tempo/time_expanded_graph.h"

#include <gtest/gtest.h>

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

TEST(TimeExpandedGraph, BuildsSlotsAndArcsFromSnapshots)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot()};
    const std::vector<double> offsets{0.0, 600.0};
    bulk_route_options opts;
    opts.capacity.isl_capacity_gbps = 20.0;
    opts.capacity.uplink_capacity_gbps = 40.0;
    opts.sat_buffer_gb = 10.0;
    const auto graph = build_time_expanded_graph_timeline(snaps, offsets, {}, opts);

    EXPECT_EQ(graph.n_satellites, 2);
    EXPECT_EQ(graph.n_ground, 2);
    EXPECT_EQ(graph.n_steps, 2);
    EXPECT_EQ(graph.n_time_nodes(), 8);
    ASSERT_EQ(graph.dwell_s.size(), 2u);
    EXPECT_DOUBLE_EQ(graph.dwell_s[0], 600.0);
    EXPECT_DOUBLE_EQ(graph.dwell_s[1], 600.0); // inferred from the grid

    // 3 transmission slots per step + 2 satellite storage slots between them.
    ASSERT_EQ(graph.slots.size(), 8u);
    int n_storage = 0;
    int n_uplink = 0;
    for (const auto& s : graph.slots) {
        if (s.storage) {
            ++n_storage;
            EXPECT_DOUBLE_EQ(s.capacity_gb, 10.0);
            EXPECT_LT(s.a, graph.n_satellites);
        } else if (s.uplink) {
            ++n_uplink;
            EXPECT_DOUBLE_EQ(s.capacity_gb, 40.0 * 600.0);
        } else {
            EXPECT_DOUBLE_EQ(s.capacity_gb, 20.0 * 600.0);
        }
    }
    EXPECT_EQ(n_storage, 2);
    EXPECT_EQ(n_uplink, 4);

    // 6 directed transmission arcs per step, 2 satellite + 2 ground storage
    // arcs between the steps.
    EXPECT_EQ(graph.arcs.size(), 16u);
    EXPECT_EQ(graph.arc_begin.size(),
              static_cast<std::size_t>(graph.n_time_nodes()) + 1);
    EXPECT_EQ(graph.arc_begin.back(), static_cast<std::int64_t>(graph.arcs.size()));
}

TEST(TimeExpandedGraph, TransmissionSlotsFollowSnapshotLinkIds)
{
    // Step i's slot for link id is step i's first slot plus id; each row
    // lists the snapshot row's arcs in order, both directions of a link
    // sharing its slot, then the row's storage arc.
    const std::vector<lsn::network_snapshot> snaps{
        chain_snapshot(), two_by_two({ms_link(1, 3, 3.0), ms_link(2, 0, 4.0)})};
    const std::vector<double> offsets{0.0, 600.0};
    const auto graph = build_time_expanded_graph_timeline(snaps, offsets, {}, {});

    // Step 0: 3 link slots, then 2 satellite storage slots; step 1: 2 links.
    const std::vector<int> first_slot{0, 5};
    ASSERT_EQ(graph.slots.size(), 7u);
    for (int i = 0; i < 2; ++i) {
        const auto& snap = snaps[static_cast<std::size_t>(i)];
        for (std::size_t id = 0; id < snap.links.size(); ++id) {
            const auto& slot = graph.slots[static_cast<std::size_t>(
                first_slot[static_cast<std::size_t>(i)] + static_cast<int>(id))];
            EXPECT_FALSE(slot.storage);
            EXPECT_EQ(slot.step, i);
            EXPECT_EQ(slot.a, snap.links[id].a);
            EXPECT_EQ(slot.b, snap.links[id].b);
        }
        for (int u = 0; u < snap.n_nodes(); ++u) {
            const auto row = static_cast<std::size_t>(graph.time_node(u, i));
            const auto first = static_cast<std::size_t>(graph.arc_begin[row]);
            const auto snap_row = snap.arcs_of(u);
            for (std::size_t k = 0; k < snap_row.size(); ++k) {
                const auto& arc = graph.arcs[first + k];
                EXPECT_EQ(arc.to, graph.time_node(snap_row[k].to, i));
                EXPECT_EQ(arc.slot, first_slot[static_cast<std::size_t>(i)] + snap_row[k].link);
                EXPECT_EQ(arc.traverse_s,
                          snap.links[static_cast<std::size_t>(snap_row[k].link)].latency_s);
            }
            // One storage arc closes every step-0 row; step 1 is the last.
            EXPECT_EQ(static_cast<std::size_t>(graph.arc_begin[row + 1]) - first,
                      snap_row.size() + (i == 0 ? 1u : 0u));
        }
    }
}

TEST(TimeExpandedGraph, ZeroBufferDropsSatelliteStorageArcs)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot()};
    const std::vector<double> offsets{0.0, 600.0};
    bulk_route_options opts;
    opts.sat_buffer_gb = 0.0;
    const auto graph = build_time_expanded_graph_timeline(snaps, offsets, {}, opts);

    for (const auto& s : graph.slots) EXPECT_FALSE(s.storage);
    // Ground storage survives: 12 transmission arcs + 2 ground storage arcs.
    EXPECT_EQ(graph.arcs.size(), 14u);
}

TEST(TimeExpandedGraph, FailedSatellitesLoseStorage)
{
    // The snapshots a failure-aware builder would hand us: s0 dead.
    const auto dead_s0 = two_by_two({ms_link(1, 3, 3.0)});
    const std::vector<lsn::network_snapshot> snaps{dead_s0, dead_s0};
    const std::vector<double> offsets{0.0, 600.0};
    const auto graph = build_time_expanded_graph_timeline(
        snaps, offsets, lsn::failure_timeline::from_static_mask({1, 0}), {});

    int n_storage = 0;
    for (const auto& s : graph.slots) {
        if (!s.storage) continue;
        ++n_storage;
        EXPECT_EQ(s.a, 1); // only the live satellite buffers
    }
    EXPECT_EQ(n_storage, 1);
}

TEST(TimeExpandedGraph, ResetLoadsAndHighWater)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot()};
    const std::vector<double> offsets{0.0, 600.0};
    auto graph = build_time_expanded_graph_timeline(snaps, offsets, {}, {});
    for (auto& s : graph.slots)
        if (s.storage && s.a == 1) s.load_gb = 7.0;

    const auto high_water = graph.satellite_buffer_high_water_gb();
    ASSERT_EQ(high_water.size(), 2u);
    EXPECT_DOUBLE_EQ(high_water[0], 0.0);
    EXPECT_DOUBLE_EQ(high_water[1], 7.0);

    graph.reset_loads();
    for (const auto& s : graph.slots) EXPECT_DOUBLE_EQ(s.load_gb, 0.0);
}

TEST(TimeExpandedGraph, ValidatesOptionsAndGrid)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot()};
    const std::vector<double> one_offset{0.0};

    // Single-step grids need an explicit last dwell...
    EXPECT_THROW(build_time_expanded_graph_timeline(snaps, one_offset, {}, {}),
                 contract_violation);
    // ...and work once it is given.
    bulk_route_options opts;
    opts.last_step_s = 300.0;
    const auto graph = build_time_expanded_graph_timeline(snaps, one_offset, {}, opts);
    EXPECT_DOUBLE_EQ(graph.dwell_s[0], 300.0);

    bulk_route_options bad = opts;
    bad.sat_buffer_gb = -1.0;
    EXPECT_THROW(build_time_expanded_graph_timeline(snaps, one_offset, {}, bad),
                 contract_violation);
    bad = opts;
    bad.max_paths_per_request = 0;
    EXPECT_THROW(build_time_expanded_graph_timeline(snaps, one_offset, {}, bad),
                 contract_violation);
    bad = opts;
    bad.capacity.isl_capacity_gbps = 0.0;
    EXPECT_THROW(build_time_expanded_graph_timeline(snaps, one_offset, {}, bad),
                 contract_violation);

    // Non-increasing offsets are rejected.
    const std::vector<double> decreasing{0.0, -1.0};
    const std::vector<lsn::network_snapshot> two{chain_snapshot(), chain_snapshot()};
    EXPECT_THROW(build_time_expanded_graph_timeline(two, decreasing, {}, {}),
                 contract_violation);
}

TEST(TimeExpandedGraph, TimelineGatesStoragePerStep)
{
    // s0 dies at step 1: it buffers across 0 -> 1 but not across 1 -> 2.
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot(),
                                                   chain_snapshot()};
    const std::vector<double> offsets{0.0, 600.0, 1200.0};
    lsn::failure_timeline timeline;
    timeline.n_satellites = 2;
    timeline.n_steps = 3;
    timeline.masks = {0, 0, /**/ 1, 0, /**/ 1, 0};
    const auto graph =
        build_time_expanded_graph_timeline(snaps, offsets, timeline, {});

    int s0_storage = 0;
    int s1_storage = 0;
    for (const auto& s : graph.slots) {
        if (!s.storage) continue;
        if (s.a == 0) {
            ++s0_storage;
            EXPECT_EQ(s.step, 0); // only before its failure step
        } else {
            ++s1_storage;
        }
    }
    EXPECT_EQ(s0_storage, 1);
    EXPECT_EQ(s1_storage, 2);
}

TEST(TimeExpandedGraph, TimelineSatelliteCountMismatchIsRejected)
{
    const std::vector<lsn::network_snapshot> snaps{chain_snapshot(),
                                                   chain_snapshot()};
    const std::vector<double> offsets{0.0, 600.0};
    lsn::failure_timeline wrong;
    wrong.n_satellites = 3; // snapshots carry 2
    wrong.n_steps = 1;
    wrong.masks = {0, 0, 0};
    EXPECT_THROW(build_time_expanded_graph_timeline(snaps, offsets, wrong, {}),
                 contract_violation);
}

} // namespace
} // namespace ssplane::tempo
