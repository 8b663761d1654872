#include "tempo/bulk_sweep.h"

#include <string>

#include <gtest/gtest.h>

#include "traffic/traffic_matrix.h"
#include "util/angles.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ssplane::tempo {
namespace {

/// 10x10 grid: at a 25° mask the 4 test gateways see satellites only
/// intermittently, so delay-tolerant delivery genuinely needs buffering.
lsn::lsn_topology test_walker()
{
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 10;
    params.sats_per_plane = 10;
    params.phasing_f = 1;
    return lsn::build_walker_grid_topology(params);
}

lsn::scenario_sweep_options short_sweep()
{
    lsn::scenario_sweep_options sweep;
    sweep.duration_s = 7200.0;
    sweep.step_s = 1800.0;
    sweep.min_elevation_rad = deg2rad(25.0);
    return sweep;
}

/// Sweep `scenario` over `short_sweep()` on a freshly built builder and
/// propagation pass.
bulk_sweep_result sweep_bulk(const lsn::lsn_topology& topo,
                             const std::vector<lsn::ground_station>& stations,
                             const lsn::failure_scenario& scenario,
                             std::span<const bulk_transfer_request> requests)
{
    const auto epoch = astro::instant::j2000();
    const auto sweep = short_sweep();
    const lsn::snapshot_builder builder(topo, stations, epoch, sweep.min_elevation_rad,
                                        sweep.max_isl_range_m);
    const auto offsets = lsn::sweep_offsets(sweep.duration_s, sweep.step_s);
    return run_bulk_sweep_timeline(
        lsn::sweep_geometry(builder, offsets),
        lsn::sample_failure_timeline(topo, scenario, offsets, epoch), requests);
}

TEST(BulkSweep, DeliversBulkVolumeOnHealthyConstellation)
{
    const auto topo = test_walker();
    const auto stations = traffic::stations_from_cities(4);
    const std::vector<bulk_transfer_request> requests{
        {0, 2, 5000.0, 0.0, 7200.0},
        {1, 3, 3000.0, 1800.0, 7200.0},
    };
    const auto result = sweep_bulk(topo, stations, {}, requests);

    EXPECT_EQ(result.n_steps, 4);
    EXPECT_EQ(result.n_failed, 0);
    ASSERT_EQ(result.routing.requests.size(), 2u);
    EXPECT_DOUBLE_EQ(result.routing.offered_gb, 8000.0);
    EXPECT_GT(result.routing.delivered_gb, 0.0);
    EXPECT_LE(result.routing.delivered_fraction, 1.0 + 1e-12);
    for (const auto& r : result.routing.requests) {
        EXPECT_GE(r.delivered_gb, 0.0);
        EXPECT_LE(r.delivered_gb, r.volume_gb + 1e-9);
        if (r.delivered_gb > 0.0) {
            EXPECT_GT(r.completion_s, 0.0);
            EXPECT_LE(r.completion_s, 7200.0 + 1e-6);
        }
    }
}

TEST(BulkSweep, StoreAndForwardBeatsPerStepGreedyUnderFailureWithPulse)
{
    // The acceptance scenario: a demand pulse far past instantaneous
    // capacity, on a constellation degraded enough that full src->dst paths
    // are scarce within single steps while uplink-only contact persists.
    const auto topo = test_walker();
    const auto stations = traffic::stations_from_cities(4);
    const auto epoch = astro::instant::j2000();
    auto sweep = short_sweep();
    sweep.duration_s = 14400.0;

    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.5;
    loss.seed = 11;

    const lsn::snapshot_builder builder(topo, stations, epoch,
                                        sweep.min_elevation_rad,
                                        sweep.max_isl_range_m);
    const auto offsets = lsn::sweep_offsets(sweep.duration_s, sweep.step_s);
    const lsn::sweep_geometry geometry(builder, offsets);

    bulk_route_options opts;
    opts.sat_buffer_gb = 1.0e5;
    std::vector<bulk_transfer_request> requests;
    for (int a = 0; a < 4; ++a)
        for (int b = 0; b < 4; ++b)
            if (a != b) requests.push_back({a, b, 2.0e5, 0.0, 14400.0});

    const auto timeline = lsn::sample_failure_timeline(topo, loss, offsets, epoch);
    const auto expanded = run_bulk_sweep_timeline(geometry, timeline, requests, opts);
    const auto replicated =
        run_bulk_sweep_per_step_baseline_timeline(geometry, timeline, requests, opts);

    EXPECT_EQ(expanded.n_failed, replicated.n_failed);
    EXPECT_GT(expanded.n_failed, 0);
    // Store-and-forward strictly beats replaying the snapshot greedy.
    EXPECT_GT(expanded.routing.delivered_gb, replicated.routing.delivered_gb);
    // Every staged gigabit respected the configured onboard buffer.
    EXPECT_GT(expanded.routing.max_buffer_gb, 0.0);
    EXPECT_LE(expanded.routing.max_buffer_gb, opts.sat_buffer_gb + 1e-9);
    for (const double hw : expanded.routing.sat_buffer_high_water_gb)
        EXPECT_LE(hw, opts.sat_buffer_gb + 1e-9);
    // No request delivers more one way than the other claims to have offered.
    for (std::size_t i = 0; i < requests.size(); ++i)
        EXPECT_LE(replicated.routing.requests[i].delivered_gb,
                  requests[i].volume_gb + 1e-9);
}

TEST(BulkSweep, FailuresOnlyReduceDeliveredVolume)
{
    const auto topo = test_walker();
    const auto stations = traffic::stations_from_cities(4);
    const auto epoch = astro::instant::j2000();
    const auto sweep = short_sweep();

    const lsn::snapshot_builder builder(topo, stations, epoch,
                                        sweep.min_elevation_rad,
                                        sweep.max_isl_range_m);
    const auto offsets = lsn::sweep_offsets(sweep.duration_s, sweep.step_s);
    const lsn::sweep_geometry geometry(builder, offsets);
    const std::vector<bulk_transfer_request> requests{
        {0, 2, 5.0e4, 0.0, 7200.0},
        {3, 1, 5.0e4, 0.0, 7200.0},
    };

    const auto baseline = run_bulk_sweep_timeline(geometry, {}, requests);
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.6;
    loss.seed = 7;
    const auto degraded = run_bulk_sweep_timeline(
        geometry, lsn::sample_failure_timeline(topo, loss, offsets, epoch), requests);

    const double ratio = delivered_volume_ratio(baseline, degraded);
    EXPECT_GE(ratio, 0.0);
    EXPECT_LE(ratio, 1.0 + 1e-12);

    // Ratio edge case: a baseline that delivered nothing yields 0.
    bulk_sweep_result empty;
    EXPECT_EQ(delivered_volume_ratio(empty, degraded), 0.0);
}

TEST(BulkSweep, BitIdenticalAcrossThreadCounts)
{
    const auto topo = test_walker();
    const auto stations = traffic::stations_from_cities(4);
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = 3;
    const std::vector<bulk_transfer_request> requests{
        {0, 2, 8.0e4, 0.0, 7200.0},
        {2, 1, 4.0e4, 1800.0, 5400.0},
        {3, 0, 6.0e4, 0.0, 7200.0},
    };

    const auto run_with = [&](unsigned threads) {
        set_thread_count(threads);
        const auto result = sweep_bulk(topo, stations, loss, requests);
        set_thread_count(0);
        return result;
    };
    const auto one = run_with(1);
    const auto two = run_with(2);
    const auto four = run_with(4);

    for (const auto* other : {&two, &four}) {
        EXPECT_EQ(one.n_failed, other->n_failed);
        EXPECT_EQ(one.routing.offered_gb, other->routing.offered_gb);
        EXPECT_EQ(one.routing.delivered_gb, other->routing.delivered_gb);
        EXPECT_EQ(one.routing.delivered_fraction, other->routing.delivered_fraction);
        EXPECT_EQ(one.routing.max_buffer_gb, other->routing.max_buffer_gb);
        EXPECT_EQ(one.routing.sat_buffer_high_water_gb,
                  other->routing.sat_buffer_high_water_gb);
        ASSERT_EQ(one.routing.requests.size(), other->routing.requests.size());
        for (std::size_t i = 0; i < one.routing.requests.size(); ++i) {
            EXPECT_EQ(one.routing.requests[i].delivered_gb,
                      other->routing.requests[i].delivered_gb);
            EXPECT_EQ(one.routing.requests[i].completion_s,
                      other->routing.requests[i].completion_s);
            EXPECT_EQ(one.routing.requests[i].n_paths,
                      other->routing.requests[i].n_paths);
        }
    }
}

TEST(BulkSweep, CascadeTimelineRoutesAroundTheUnfoldingFailure)
{
    const auto topo = test_walker();
    const auto stations = traffic::stations_from_cities(4);
    const auto epoch = astro::instant::j2000();
    const auto sweep = short_sweep();
    const lsn::snapshot_builder builder(topo, stations, epoch,
                                        sweep.min_elevation_rad);
    const auto offsets = lsn::sweep_offsets(sweep.duration_s, sweep.step_s);
    const lsn::sweep_geometry geometry(builder, offsets);
    const std::vector<bulk_transfer_request> requests{
        {0, 2, 5000.0, 0.0, 7200.0},
        {1, 3, 3000.0, 1800.0, 7200.0},
    };

    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 5;
    cascade.cascade_base_daily_hazard = 0.5;
    cascade.cascade_escalation = 2.0;
    cascade.cascade_cooldown_s = 7200.0;
    cascade.seed = 9;

    const auto baseline = run_bulk_sweep_timeline(geometry, {}, requests);
    const auto timeline =
        lsn::sample_failure_timeline(topo, cascade, offsets, epoch);
    const auto degraded = run_bulk_sweep_timeline(geometry, timeline, requests);

    // The loss count is the timeline's final row, and delivered volume can
    // only shrink relative to the unfailed baseline.
    EXPECT_EQ(degraded.n_failed, timeline.final_n_failed());
    EXPECT_GT(degraded.n_failed, 0);
    EXPECT_LE(degraded.routing.delivered_gb,
              baseline.routing.delivered_gb + 1e-9);
}

TEST(BulkSweep, OneRequestNeverDeliversLessThanThePerStepFloor)
{
    // With a single request nothing competes for capacity, and on seeded
    // random per-step masks, windows and buffers store-and-forward delivers
    // at least what the per-step floor does. (With two or more requests it
    // need not: BulkRouter.PriorityOrderCanLeaveStoreAndForwardBelowTheFloor.)
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 10;
    params.sats_per_plane = 12;
    params.phasing_f = 1;
    const auto topo = lsn::build_walker_grid_topology(params);
    constexpr double step_s = 1800.0;
    constexpr int n_steps = 6;
    const lsn::sweep_geometry geometry(
        lsn::snapshot_builder(topo, traffic::stations_from_cities(4),
                              astro::instant::j2000(), deg2rad(10.0)),
        lsn::sweep_offsets(n_steps * step_s, step_s));
    const int n_sats = geometry.builder().n_satellites();

    rng r(20251019);
    int moved = 0;   // trials where the floor delivers something
    int partial = 0; // ... and store-and-forward leaves some volume behind
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        lsn::failure_timeline timeline;
        timeline.n_satellites = n_sats;
        timeline.n_steps = n_steps;
        const double loss = r.uniform(0.0, 0.4);
        for (int k = 0; k < n_steps * n_sats; ++k)
            timeline.masks.push_back(r.bernoulli(loss) ? 1 : 0);

        const int src = static_cast<int>(r.uniform_int(0, 3));
        const int dst = (src + static_cast<int>(r.uniform_int(1, 3))) % 4;
        const double release_s =
            static_cast<double>(r.uniform_int(0, n_steps - 1)) * step_s +
            r.uniform(0.0, 0.25 * step_s);
        const double deadline_s = release_s + r.uniform(1.0, 4.0) * step_s;
        const bulk_transfer_request request{src, dst, r.uniform(1.0e4, 4.0e5),
                                            release_s, deadline_s};
        bulk_route_options opts;
        const double buffers_gb[] = {0.0, 100.0, 1.0e4, 1.0e6};
        opts.sat_buffer_gb = buffers_gb[r.uniform_int(0, 3)];

        const auto stored =
            run_bulk_sweep_timeline(geometry, timeline, {&request, 1}, opts);
        const auto floor = run_bulk_sweep_per_step_baseline_timeline(
            geometry, timeline, {&request, 1}, opts);
        EXPECT_GE(stored.routing.delivered_gb,
                  floor.routing.delivered_gb * (1.0 - 1e-12) - 1e-9);
        if (floor.routing.delivered_gb > 0.0) {
            ++moved;
            if (stored.routing.delivered_fraction < 1.0) ++partial;
        }
    }
    // The draws exercise the bound: many trials move volume, and in many
    // the window or the masks leave some of it behind.
    EXPECT_GE(moved, 80);
    EXPECT_GE(partial, 50);
}

} // namespace
} // namespace ssplane::tempo
