// Serving sweeps along failure timelines: a mid-sweep total strike must
// show up as a served-fraction dip with the right drop accounting, the SLO
// scalars must be pure functions of the step traces, every row of a batch
// must equal that row served alone, and the whole sweep must be
// bit-identical under thread-count and chunk-size perturbations.
#include "serve/serving_sweep.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "constellation/walker.h"
#include "lsn/topology.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ssplane::serve {
namespace {

lsn::lsn_topology small_walker()
{
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 6;
    params.sats_per_plane = 8;
    params.phasing_f = 1;
    return lsn::build_walker_grid_topology(params);
}

struct sweep_fixture {
    lsn::lsn_topology topo = small_walker();
    lsn::sweep_geometry geometry{
        lsn::snapshot_builder{topo, lsn::default_ground_stations(),
                              astro::instant::j2000(), deg2rad(25.0)},
        lsn::sweep_offsets(7200.0, 1800.0)};
    session_grid grid;

    explicit sweep_fixture(std::int64_t n_sessions = 30000)
    {
        const demand::population_model population;
        serving_options options;
        options.n_sessions = n_sessions;
        options.seed = 3;
        grid = sample_session_grid(population, options);
    }
};

/// All satellites dead from step `strike` through step `restore - 1`.
lsn::failure_timeline strike_window(int n_sats, int n_steps, int strike,
                                    int restore)
{
    lsn::failure_timeline timeline;
    timeline.n_satellites = n_sats;
    timeline.n_steps = n_steps;
    timeline.masks.assign(
        static_cast<std::size_t>(n_sats) * static_cast<std::size_t>(n_steps), 0);
    for (int step = strike; step < restore; ++step)
        for (int s = 0; s < n_sats; ++s)
            timeline.masks[static_cast<std::size_t>(step) *
                               static_cast<std::size_t>(n_sats) +
                           static_cast<std::size_t>(s)] = 1;
    return timeline;
}

/// A fresh random loss of `fraction` of the satellites at every step.
lsn::failure_timeline random_every_step(int n_sats, int n_steps, double fraction,
                                        std::uint64_t seed)
{
    lsn::failure_timeline timeline;
    timeline.n_satellites = n_sats;
    timeline.n_steps = n_steps;
    rng draw(seed);
    for (int i = 0; i < n_sats * n_steps; ++i)
        timeline.masks.push_back(draw.bernoulli(fraction) ? 1 : 0);
    return timeline;
}

/// Every scalar and every trace, compared bit for bit.
void expect_identical(const serving_sweep_result& a, const serving_sweep_result& b)
{
    EXPECT_EQ(a.n_steps, b.n_steps);
    EXPECT_EQ(a.metrics.sessions_homed, b.metrics.sessions_homed);
    EXPECT_EQ(a.metrics.sessions_active_mean, b.metrics.sessions_active_mean);
    EXPECT_EQ(a.metrics.offered_gbps_mean, b.metrics.offered_gbps_mean);
    EXPECT_EQ(a.metrics.delivered_gbps_mean, b.metrics.delivered_gbps_mean);
    EXPECT_EQ(a.metrics.delivered_fraction, b.metrics.delivered_fraction);
    EXPECT_EQ(a.metrics.served_fraction_mean, b.metrics.served_fraction_mean);
    EXPECT_EQ(a.metrics.min_step_served_fraction, b.metrics.min_step_served_fraction);
    EXPECT_EQ(a.metrics.p50_session_rate_mbps, b.metrics.p50_session_rate_mbps);
    EXPECT_EQ(a.metrics.p99_session_rate_mbps, b.metrics.p99_session_rate_mbps);
    EXPECT_EQ(a.metrics.sessions_dropped_max, b.metrics.sessions_dropped_max);
    EXPECT_EQ(a.metrics.sessions_degraded_max, b.metrics.sessions_degraded_max);
    EXPECT_EQ(a.metrics.time_to_restore_s, b.metrics.time_to_restore_s);
    EXPECT_EQ(a.metrics.recovery_headroom, b.metrics.recovery_headroom);
    EXPECT_EQ(a.step_served_fraction, b.step_served_fraction);
    EXPECT_EQ(a.step_sessions_active, b.step_sessions_active);
    EXPECT_EQ(a.step_sessions_dropped, b.step_sessions_dropped);
    EXPECT_EQ(a.step_sessions_degraded, b.step_sessions_degraded);
    EXPECT_EQ(a.step_p99_session_rate_mbps, b.step_p99_session_rate_mbps);
    EXPECT_EQ(a.step_delivered_gbps, b.step_delivered_gbps);
}

TEST(ServingSweep, ScalarsAreFunctionsOfTheStepTraces)
{
    const sweep_fixture fx;
    serving_options options;
    options.n_sessions = 30000;
    options.seed = 3;
    const auto unfailed = lsn::failure_timeline::from_static_mask({});
    const auto result = run_serving_sweep_timeline(fx.geometry, {&unfailed},
                                                   fx.grid, options)
                            .front();

    const auto n = fx.geometry.offsets().size();
    ASSERT_EQ(result.n_steps, static_cast<int>(n));
    ASSERT_EQ(result.step_served_fraction.size(), n);
    ASSERT_EQ(result.step_sessions_active.size(), n);
    ASSERT_EQ(result.step_sessions_dropped.size(), n);
    ASSERT_EQ(result.step_sessions_degraded.size(), n);
    ASSERT_EQ(result.step_p99_session_rate_mbps.size(), n);
    ASSERT_EQ(result.step_delivered_gbps.size(), n);

    const auto& m = result.metrics;
    EXPECT_EQ(m.sessions_homed, fx.grid.total_sessions);
    double served_min = 1.0;
    double served_sum = 0.0;
    for (const double f : result.step_served_fraction) {
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.0);
        served_min = std::min(served_min, f);
        served_sum += f;
    }
    EXPECT_DOUBLE_EQ(m.min_step_served_fraction, served_min);
    EXPECT_DOUBLE_EQ(m.served_fraction_mean,
                     served_sum / static_cast<double>(n));
    EXPECT_DOUBLE_EQ(m.time_to_restore_s,
                     time_to_restore(result.step_served_fraction, fx.geometry.offsets(),
                                     options.restore_served_fraction));
    EXPECT_DOUBLE_EQ(m.recovery_headroom,
                     lsn::recovery_headroom(result.step_served_fraction));
    EXPECT_GE(m.delivered_fraction, 0.0);
    EXPECT_LE(m.delivered_fraction, 1.0);
    EXPECT_GE(m.p50_session_rate_mbps, m.p99_session_rate_mbps);
}

TEST(ServingSweep, MidSweepTotalStrikeDipsAndRecovers)
{
    const sweep_fixture fx;
    serving_options options;
    options.n_sessions = 30000;
    options.seed = 3;
    const int n_sats = static_cast<int>(fx.geometry.positions()[0].size());
    const int n_steps = static_cast<int>(fx.geometry.offsets().size());
    ASSERT_GE(n_steps, 3);

    const auto unfailed = lsn::failure_timeline::from_static_mask({});
    const auto strike = strike_window(n_sats, n_steps, 1, 2);
    const auto rows =
        run_serving_sweep_timeline(fx.geometry, {&unfailed, &strike}, fx.grid, options);
    ASSERT_EQ(rows.size(), 2u);
    const auto& baseline = rows[0];
    const auto& struck = rows[1];

    // The struck step serves nobody: everything awake is dropped.
    EXPECT_DOUBLE_EQ(struck.step_served_fraction[1], 0.0);
    EXPECT_DOUBLE_EQ(struck.step_delivered_gbps[1], 0.0);
    EXPECT_EQ(struck.step_sessions_dropped[1], struck.step_sessions_active[1]);
    EXPECT_GT(struck.step_sessions_active[1], 0.0);
    // The strike step drops everyone awake, but the *worst* step may still
    // be a busier baseline step with coverage gaps — the max is over the
    // whole trace.
    double dropped_max = 0.0;
    for (const double d : struck.step_sessions_dropped)
        dropped_max = std::max(dropped_max, d);
    EXPECT_EQ(struck.metrics.sessions_dropped_max,
              static_cast<std::int64_t>(dropped_max));
    EXPECT_GE(struck.metrics.sessions_dropped_max,
              static_cast<std::int64_t>(struck.step_sessions_active[1]));

    // Every untouched step is byte-identical to the baseline sweep.
    for (const int step : {0, 2, 3}) {
        if (step >= n_steps) continue;
        EXPECT_EQ(struck.step_served_fraction[static_cast<std::size_t>(step)],
                  baseline.step_served_fraction[static_cast<std::size_t>(step)]);
        EXPECT_EQ(struck.step_delivered_gbps[static_cast<std::size_t>(step)],
                  baseline.step_delivered_gbps[static_cast<std::size_t>(step)]);
    }
    EXPECT_LE(struck.metrics.served_fraction_mean,
              baseline.metrics.served_fraction_mean);
    EXPECT_GE(struck.metrics.recovery_headroom,
              baseline.metrics.recovery_headroom);
}

TEST(ServingSweep, TimeToRestoreSemantics)
{
    const std::vector<double> offsets{0.0, 600.0, 1200.0, 1800.0};
    const std::vector<double> healthy{1.0, 0.95, 1.0, 0.92};
    EXPECT_DOUBLE_EQ(time_to_restore(healthy, offsets, 0.9), -1.0);

    const std::vector<double> restored{1.0, 0.4, 0.5, 0.95};
    EXPECT_DOUBLE_EQ(time_to_restore(restored, offsets, 0.9), 1200.0);

    const std::vector<double> stuck{1.0, 0.4, 0.5, 0.6};
    EXPECT_TRUE(std::isinf(time_to_restore(stuck, offsets, 0.9)));

    const std::vector<double> misaligned{1.0, 0.4};
    EXPECT_THROW(time_to_restore(misaligned, offsets, 0.9), contract_violation);
}

TEST(ServingSweep, BitIdenticalAcrossThreads)
{
    const sweep_fixture fx;
    serving_options options;
    options.n_sessions = 30000;
    options.seed = 3;
    const int n_sats = static_cast<int>(fx.geometry.positions()[0].size());
    const int n_steps = static_cast<int>(fx.geometry.offsets().size());
    const auto timeline = strike_window(n_sats, n_steps, 1, 3);

    const auto reference =
        run_serving_sweep_timeline(fx.geometry, {&timeline}, fx.grid, options).front();
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        const auto result =
            run_serving_sweep_timeline(fx.geometry, {&timeline}, fx.grid, options)
                .front();
        EXPECT_EQ(result.step_served_fraction,
                  reference.step_served_fraction);
        EXPECT_EQ(result.step_sessions_active,
                  reference.step_sessions_active);
        EXPECT_EQ(result.step_sessions_dropped,
                  reference.step_sessions_dropped);
        EXPECT_EQ(result.step_sessions_degraded,
                  reference.step_sessions_degraded);
        EXPECT_EQ(result.step_p99_session_rate_mbps,
                  reference.step_p99_session_rate_mbps);
        EXPECT_EQ(result.step_delivered_gbps,
                  reference.step_delivered_gbps);
        EXPECT_EQ(result.metrics.p50_session_rate_mbps,
                  reference.metrics.p50_session_rate_mbps);
        EXPECT_EQ(result.metrics.p99_session_rate_mbps,
                  reference.metrics.p99_session_rate_mbps);
        EXPECT_EQ(result.metrics.served_fraction_mean,
                  reference.metrics.served_fraction_mean);
        EXPECT_EQ(result.metrics.time_to_restore_s,
                  reference.metrics.time_to_restore_s);
    }
    set_thread_count(0);
}

TEST(ServingSweep, ReductionMatchesIndependentPerStepAssignments)
{
    // The row reduction merges equal rates into one histogram entry; its
    // traces and percentiles must equal those of the per-beam groups of
    // independent per-step `assign_beams` calls, pooled in step order. A
    // 20x20 shell with unlimited beams covers most sessions, and thin
    // beams spread their rates, so the median lands on a served rate.
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 20;
    params.sats_per_plane = 20;
    params.phasing_f = 1;
    const auto topo = lsn::build_walker_grid_topology(params);
    const lsn::sweep_geometry geometry(
        lsn::snapshot_builder(topo, lsn::default_ground_stations(),
                              astro::instant::j2000(), deg2rad(25.0)),
        lsn::sweep_offsets(7200.0, 1800.0));
    const auto& builder = geometry.builder();
    const auto offsets = geometry.offsets();
    const auto& positions = geometry.positions();
    const sweep_fixture fx;
    serving_options options;
    options.beams_per_satellite = 10000;
    options.max_users_per_beam = 1000000;
    options.satellite_capacity_gbps = 1.0e6;
    options.beam_capacity_gbps = 0.05;
    const int n_steps = static_cast<int>(offsets.size());
    const auto timeline = random_every_step(builder.n_satellites(), n_steps, 0.1, 5);
    const auto result =
        run_serving_sweep_timeline(geometry, {&timeline}, fx.grid, options)
            .front();

    std::vector<session_rate_group> pooled;
    for (int i = 0; i < n_steps; ++i) {
        const auto at = static_cast<std::size_t>(i);
        const auto step =
            assign_beams(fx.grid, positions[at], timeline.step(i),
                         builder.epoch().plus_seconds(offsets[at]), options);
        EXPECT_EQ(result.step_sessions_active[at],
                  static_cast<double>(step.sessions_active));
        EXPECT_EQ(result.step_sessions_dropped[at],
                  static_cast<double>(step.sessions_dropped));
        EXPECT_EQ(result.step_sessions_degraded[at],
                  static_cast<double>(step.sessions_degraded));
        EXPECT_EQ(result.step_served_fraction[at], step.served_fraction());
        EXPECT_EQ(result.step_delivered_gbps[at], step.delivered_gbps);
        EXPECT_EQ(result.step_p99_session_rate_mbps[at],
                  session_rate_percentile(step.rate_groups, 1.0));
        pooled.insert(pooled.end(), step.rate_groups.begin(), step.rate_groups.end());
    }
    EXPECT_GT(result.metrics.p50_session_rate_mbps, 0.0);
    EXPECT_EQ(result.metrics.p50_session_rate_mbps,
              session_rate_percentile(pooled, 50.0));
    EXPECT_EQ(result.metrics.p99_session_rate_mbps,
              session_rate_percentile(pooled, 1.0));
}

TEST(ServingSweep, BatchOfRowsEqualsEachRowServedAlone)
{
    const sweep_fixture fx;
    serving_options options;
    options.n_sessions = 30000;
    options.seed = 3;
    const int n_sats = static_cast<int>(fx.geometry.positions()[0].size());
    const int n_steps = static_cast<int>(fx.geometry.offsets().size());
    std::vector<std::uint8_t> static_loss(static_cast<std::size_t>(n_sats), 0);
    for (int s = 0; s < n_sats; s += 3) static_loss[static_cast<std::size_t>(s)] = 1;
    const std::vector<lsn::failure_timeline> timelines{
        lsn::failure_timeline::from_static_mask({}),
        lsn::failure_timeline::from_static_mask(static_loss),
        strike_window(n_sats, n_steps, 1, 3),
        random_every_step(n_sats, n_steps, 0.2, 17),
        random_every_step(n_sats, n_steps, 0.6, 18)};
    std::vector<const lsn::failure_timeline*> rows;
    std::vector<serving_sweep_result> alone;
    for (const auto& timeline : timelines) {
        rows.push_back(&timeline);
        alone.push_back(run_serving_sweep_timeline(fx.geometry, {&timeline},
                                                   fx.grid, options)
                            .front());
    }

    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        const auto batch =
            run_serving_sweep_timeline(fx.geometry, rows, fx.grid, options);
        ASSERT_EQ(batch.size(), rows.size());
        for (std::size_t r = 0; r < rows.size(); ++r) {
            SCOPED_TRACE("threads " + std::to_string(threads) + ", row " +
                         std::to_string(r));
            expect_identical(batch[r], alone[r]);
        }
    }
    set_thread_count(0);
    EXPECT_TRUE(run_serving_sweep_timeline(fx.geometry, {},
                                           fx.grid, options)
                    .empty());
}

} // namespace
} // namespace ssplane::serve
