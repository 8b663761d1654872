// Exact work gate of a campaign's per-step passes: on a fixed
// static-wiring fixture the context builds each step's links once, every
// percolation (row, step) only filters them, the serving batch discovers
// visibility once per step for all rows, and the percolation sweep solves
// each distinct graph once. A change that goes back to per-cell snapshot
// builds, per-row discovery or repeated λ₂ solves moves these counters and
// fails here.
#include "exp/campaign.h"

#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/angles.h"
#include "util/parallel.h"

namespace ssplane::exp {
namespace {

TEST(CampaignWork, OneDiscoveryPerStepAndOneSolvePerDistinctGraph)
{
#if defined(SSPLANE_OBS_DISABLED)
    GTEST_SKIP() << "work counters compile away under -DSSPLANE_OBS=OFF";
#else
    const auto counter_value = [](const char* name) {
        return obs::registry::instance().get_counter(name).value();
    };
    constellation::walker_parameters shell;
    shell.altitude_m = 550.0e3;
    shell.inclination_rad = deg2rad(53.0);
    shell.n_planes = 6;
    shell.sats_per_plane = 8;
    shell.phasing_f = 1;
    const auto topo = lsn::build_walker_grid_topology(shell);
    // Every +Grid link stays in range, so a row's graph is the same at
    // every step: the wiring is static.
    lsn::scenario_sweep_options grid;
    grid.duration_s = 5400.0;
    grid.step_s = 1800.0;
    grid.min_elevation_rad = deg2rad(25.0);
    grid.max_isl_range_m = 1.0e8;
    const std::uint64_t steps = 3;

    // Two templates x three seeds: the three baselines share one
    // timeline, so four distinct rows reach each engine.
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.2;
    serve::serving_options serving;
    serving.n_sessions = 5000;
    serving.seed = 1;
    percolation_engine_options percolation;
    percolation.compute_masking_thresholds = false;
    static const demand::population_model population;
    const std::uint64_t rows = 4;

    // Fresh engines and context per run, so the second run repeats the
    // first one's session sampling and timeline draws.
    std::vector<std::vector<obs::metric_sample>> snapshots;
    for (const unsigned threads : {1u, 4u}) {
        set_thread_count(threads);
        obs::registry::instance().reset();
        experiment_plan plan;
        plan.scenarios = {{"baseline", {}}, {"random_20", loss}};
        plan.seeds = {1, 2, 3};
        plan.engines = {std::make_shared<serving_engine>(population, serving),
                        std::make_shared<percolation_engine>(percolation)};
        const evaluation_context context(topo, {}, astro::instant::j2000(), grid);
        ASSERT_EQ(context.n_steps(), static_cast<int>(steps));
        const auto campaign = run_campaign(plan, context);
        ASSERT_EQ(campaign.rows.size(), 6u);
        EXPECT_EQ(counter_value("exp.campaign.cells_unique"), 2 * rows);
        EXPECT_EQ(counter_value("serve.discover.steps"), steps);
        EXPECT_EQ(counter_value("serve.assign.steps"), rows * steps);
        EXPECT_EQ(counter_value("spectral.lanczos.solves") +
                      counter_value("spectral.lanczos.skipped_disconnected") +
                      counter_value("spectral.percolate.reused"),
                  rows * steps);
        EXPECT_EQ(counter_value("spectral.percolate.reused"), rows * (steps - 1));
        EXPECT_EQ(counter_value("lsn.snapshot.builds"), steps);
        EXPECT_EQ(counter_value("lsn.snapshot.filters"), rows * steps);
        EXPECT_EQ(campaign.cache.snapshot_builds, steps);
        snapshots.push_back(obs::deterministic_snapshot());

        // The warm context builds nothing more: a second campaign only
        // filters the links the first one built.
        const auto again = run_campaign(plan, context);
        EXPECT_EQ(counter_value("lsn.snapshot.builds"), steps);
        EXPECT_EQ(counter_value("lsn.snapshot.filters"), 2 * rows * steps);
        EXPECT_EQ(again.cache.snapshot_builds, 0u);
    }
    set_thread_count(0);
    // The drop reasons and the reuse count are work counters too.
    EXPECT_EQ(snapshots[0], snapshots[1]);
#endif
}

} // namespace
} // namespace ssplane::exp
