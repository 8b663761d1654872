#include "exp/campaign.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "../lsn/capped_topology.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::exp {
namespace {

lsn::lsn_topology engine_walker(int planes = 6, int sats = 8)
{
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = planes;
    params.sats_per_plane = sats;
    params.phasing_f = 1;
    return lsn::build_walker_grid_topology(params);
}

lsn::scenario_sweep_options engine_grid()
{
    lsn::scenario_sweep_options grid;
    grid.duration_s = 7200.0;
    grid.step_s = 1800.0;
    grid.min_elevation_rad = deg2rad(25.0);
    return grid;
}

percolation_engine_options fast_options()
{
    percolation_engine_options options;
    options.compute_masking_thresholds = true;
    // A coarse escalation keeps the threshold sweep cheap in unit tests.
    options.masking.fraction_step = 0.125;
    options.masking.max_fraction = 0.5;
    options.masking.n_seeds = 2;
    return options;
}

TEST(PercolationEngine, StaticScenarioMatchesDirectSweepBitForBit)
{
    const auto topo = engine_walker();
    const evaluation_context context(topo, {}, astro::instant::j2000(),
                                     engine_grid());

    lsn::failure_scenario attack;
    attack.mode = lsn::failure_mode::plane_attack;
    attack.planes_attacked = 2;
    attack.seed = 7;

    experiment_plan plan;
    plan.scenarios = {{"baseline", {}}, {"attack_2", attack}};
    plan.engines = {std::make_shared<percolation_engine>(fast_options())};
    const auto campaign = run_campaign(plan, context);
    ASSERT_EQ(campaign.rows.size(), 2u);
    ASSERT_EQ(campaign.n_engines, 1);

    for (int row = 0; row < 2; ++row) {
        const auto timeline = lsn::failure_timeline::from_static_mask(
            campaign.rows[static_cast<std::size_t>(row)].scenario.mode ==
                    lsn::failure_mode::none
                ? std::vector<std::uint8_t>{}
                : lsn::sample_failures(
                      topo, campaign.rows[static_cast<std::size_t>(row)].scenario));
        const auto direct =
            spectral::run_percolation_sweep_timeline(context.geometry(), timeline);
        EXPECT_EQ(campaign.value(row, "percolation.lambda2_mean"),
                  direct.lambda2_mean);
        EXPECT_EQ(campaign.value(row, "percolation.giant_fraction_min"),
                  direct.giant_fraction_min);
        EXPECT_EQ(campaign.value(row, "percolation.susceptibility_max"),
                  direct.susceptibility_max);
        EXPECT_EQ(campaign.value(row, "percolation.clustering_mean"),
                  direct.clustering_mean);
        const auto& cell = percolation_engine::detail(campaign.cell(row, 0));
        EXPECT_EQ(cell.step_lambda2, direct.step_lambda2);
        EXPECT_EQ(cell.step_giant_fraction, direct.step_giant_fraction);
    }

    // The unfailed baseline is connected and better-knit than the attack.
    EXPECT_GT(campaign.value(0, "percolation.lambda2_min"), 0.0);
    EXPECT_GE(campaign.value(0, "percolation.giant_fraction_mean"),
              campaign.value(1, "percolation.giant_fraction_mean"));
}

TEST(PercolationEngine, MaskingThresholdColumnsAreCampaignConstants)
{
    const auto topo = engine_walker();
    const evaluation_context context(topo, {}, astro::instant::j2000(),
                                     engine_grid());

    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.2;
    loss.seed = 3;

    experiment_plan plan;
    plan.scenarios = {{"baseline", {}}, {"loss", loss}};
    plan.seeds = {1, 2}; // exercises the campaign's timeline-dedup path
    plan.engines = {std::make_shared<percolation_engine>(fast_options())};
    const auto campaign = run_campaign(plan, context);
    ASSERT_EQ(campaign.rows.size(), 4u);

    // The thresholds depend only on the topology, so every row agrees.
    const double random_loss =
        campaign.value(0, "percolation.masking_threshold_random_loss");
    const double plane_attack =
        campaign.value(0, "percolation.masking_threshold_plane_attack");
    for (int row = 1; row < 4; ++row) {
        EXPECT_EQ(campaign.value(row, "percolation.masking_threshold_random_loss"),
                  random_loss);
        EXPECT_EQ(campaign.value(row, "percolation.masking_threshold_plane_attack"),
                  plane_attack);
    }
    // +Grid is redundant: neither threshold fires at the very first step,
    // and a threshold either never fires (-1) or lies on the fraction grid.
    for (const double threshold : {random_loss, plane_attack}) {
        if (threshold < 0.0)
            EXPECT_EQ(threshold, -1.0);
        else
            EXPECT_LE(threshold, 0.5);
    }

    // Disabling the sweep turns both columns into -1.
    percolation_engine_options off = fast_options();
    off.compute_masking_thresholds = false;
    experiment_plan cheap = plan;
    cheap.engines = {std::make_shared<percolation_engine>(off)};
    const auto no_thresholds = run_campaign(cheap, context);
    EXPECT_EQ(no_thresholds.value(0, "percolation.masking_threshold_random_loss"),
              -1.0);
    EXPECT_EQ(no_thresholds.value(0, "percolation.masking_threshold_plane_attack"),
              -1.0);
}

TEST(PercolationEngine, EachContextsTopologyGetsItsOwnThresholds)
{
    // One engine judges two wirings of the same 8x8 shell, one context each,
    // built in turn at one address: the second campaign must read the second
    // wiring's thresholds, the same as a fresh engine's, not the first's.
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 8;
    params.sats_per_plane = 8;
    params.phasing_f = 1;

    const auto random_loss_threshold = [](const lsn::lsn_topology& topo,
                                          const experiment_plan& plan) {
        const evaluation_context context(topo, {}, astro::instant::j2000(),
                                         engine_grid());
        return run_campaign(plan, context)
            .value(0, "percolation.masking_threshold_random_loss");
    };
    percolation_engine_options thresholds_on;
    thresholds_on.compute_masking_thresholds = true;
    experiment_plan reused;
    reused.scenarios = {{"baseline", {}}};
    reused.engines = {std::make_shared<percolation_engine>(thresholds_on)};
    experiment_plan fresh = reused;
    fresh.engines = {std::make_shared<percolation_engine>(thresholds_on)};

    std::optional<lsn::lsn_topology> topo;
    topo.emplace(lsn::build_walker_grid_topology(params));
    const auto* address = &*topo;
    const double grid_threshold = random_loss_threshold(*topo, reused);

    topo.emplace(lsn::build_walker_capped_topology(params, 2));
    ASSERT_EQ(&*topo, address);
    const double capped_threshold = random_loss_threshold(*topo, reused);
    EXPECT_EQ(capped_threshold, random_loss_threshold(*topo, fresh));
    // The degree-2 ring breaks far earlier than the +Grid mesh.
    EXPECT_LT(capped_threshold, grid_threshold);
}

TEST(PercolationEngine, KesslerTimelineProducesDegradingStepTraces)
{
    const auto topo = engine_walker();
    const evaluation_context context(topo, {}, astro::instant::j2000(),
                                     engine_grid());

    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 2;
    cascade.cascade_base_daily_hazard = 0.3;
    cascade.cascade_escalation = 1.0;
    cascade.seed = 5;

    experiment_plan plan;
    plan.scenarios = {{"baseline", {}}, {"cascade", cascade}};
    plan.engines = {std::make_shared<percolation_engine>(fast_options()),
                    std::make_shared<survivability_engine>()};
    const auto campaign = run_campaign(plan, context);

    // Flattened step columns: percolation's five then survivability's three.
    ASSERT_EQ(campaign.step_columns.size(), 8u);
    EXPECT_EQ(campaign.step_columns[0], "percolation.lambda2");
    EXPECT_EQ(campaign.step_columns[1], "percolation.giant_component_fraction");
    EXPECT_EQ(campaign.step_columns[2], "percolation.susceptibility");
    EXPECT_EQ(campaign.step_columns[3], "percolation.clustering");
    EXPECT_EQ(campaign.step_columns[4], "percolation.lambda2_unconverged");

    std::ostringstream out;
    campaign.write_step_csv(out);
    const std::string text = out.str();
    const std::string header = text.substr(0, text.find('\n'));
    for (const auto& column : campaign.step_columns)
        EXPECT_NE(header.find(column), std::string::npos) << column;
    const auto lines =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
    EXPECT_EQ(lines, campaign.rows.size() * context.offsets().size() + 1);

    // The cascade eats the constellation: its giant-component trajectory
    // must agree with the survivability engine's step for step, and the
    // spectral trace must not climb while satellites only die.
    const int perc = campaign.engine_index("percolation");
    const int surv = campaign.engine_index("survivability");
    const auto& perc_cell = percolation_engine::detail(campaign.cell(1, perc));
    const auto& surv_cell = survivability_engine::detail(campaign.cell(1, surv));
    ASSERT_EQ(perc_cell.step_giant_fraction.size(),
              surv_cell.step_giant_fraction.size());
    for (std::size_t i = 0; i < perc_cell.step_giant_fraction.size(); ++i)
        EXPECT_EQ(perc_cell.step_giant_fraction[i], surv_cell.step_giant_fraction[i]);
    // Step for step, the cascade's alive graph is a subgraph of the
    // baseline's, so its giant component can only be smaller. (λ₂ of the
    // compacted survivor graph is NOT monotone — fewer nodes can be
    // better-knit — so that trace is compared via the direct-sweep test.)
    const auto& base_cell = percolation_engine::detail(campaign.cell(0, perc));
    for (std::size_t i = 0; i < perc_cell.step_giant_fraction.size(); ++i)
        EXPECT_LE(perc_cell.step_giant_fraction[i], base_cell.step_giant_fraction[i]);
    EXPECT_LT(perc_cell.step_giant_fraction.back(),
              base_cell.step_giant_fraction.back());
}

TEST(PercolationEngine, BitIdenticalAcrossThreadCounts)
{
    const auto topo = engine_walker(5, 6);
    const evaluation_context context(topo, {}, astro::instant::j2000(),
                                     engine_grid());

    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 1;
    cascade.cascade_base_daily_hazard = 0.2;
    cascade.cascade_escalation = 0.5;
    cascade.seed = 9;

    experiment_plan plan;
    plan.scenarios = {{"baseline", {}}, {"cascade", cascade}};
    plan.engines = {std::make_shared<percolation_engine>(fast_options())};

    set_thread_count(1);
    const auto serial = run_campaign(plan, context);
    for (const unsigned threads : {2u, 4u}) {
        set_thread_count(threads);
        const auto parallel = run_campaign(plan, context);
        ASSERT_EQ(parallel.rows.size(), serial.rows.size());
        for (std::size_t row = 0; row < serial.rows.size(); ++row)
            for (const auto& column : serial.columns)
                EXPECT_EQ(parallel.value(static_cast<int>(row), column),
                          serial.value(static_cast<int>(row), column))
                    << column << " row " << row << " threads " << threads;
    }
    set_thread_count(0);
}

TEST(PercolationEngine, ApproximateLambda2IsFlaggedPerCellAndStep)
{
    const auto topo = engine_walker();
    const evaluation_context context(topo, {}, astro::instant::j2000(),
                                     engine_grid());
    lsn::failure_scenario attack;
    attack.mode = lsn::failure_mode::plane_attack;
    attack.planes_attacked = 3;
    attack.seed = 7;

    experiment_plan plan;
    plan.scenarios = {{"baseline", {}}, {"attack_3", attack}};
    percolation_engine_options exact = fast_options();
    exact.compute_masking_thresholds = false;
    plan.engines = {std::make_shared<percolation_engine>(exact)};
    const auto campaign = run_campaign(plan, context);
    for (int row = 0; row < 2; ++row)
        EXPECT_EQ(campaign.value(row, "percolation.lambda2_unconverged_steps"), 0.0);

    // Capping the solve at 3 Lanczos steps leaves every connected step's λ₂
    // approximate; disconnected steps stay exact (λ₂ = 0, no solve).
    percolation_engine_options capped = exact;
    capped.metrics.lanczos.max_iterations = 3;
    plan.engines = {std::make_shared<percolation_engine>(capped)};
    const auto rough = run_campaign(plan, context);
    const auto n_steps = static_cast<double>(context.offsets().size());
    EXPECT_EQ(rough.value(0, "percolation.lambda2_unconverged_steps"), n_steps);
    for (int row = 0; row < 2; ++row) {
        const auto& cell = percolation_engine::detail(rough.cell(row, 0));
        const auto traces = rough.engines[0]->step_traces(rough.cell(row, 0));
        double flagged = 0.0;
        for (std::size_t i = 0; i < cell.step_lambda2.size(); ++i) {
            const bool disconnected = cell.step_susceptibility[i] > 0.0;
            EXPECT_EQ(traces[4][i], disconnected ? 0.0 : 1.0) << row << " step " << i;
            if (disconnected) {
                EXPECT_EQ(cell.step_lambda2[i], 0.0);
            }
            flagged += traces[4][i];
        }
        EXPECT_EQ(rough.value(row, "percolation.lambda2_unconverged_steps"), flagged);
    }
}

TEST(PercolationEngine, ValidateRejectsDegenerateOptions)
{
    percolation_engine_options bad_lanczos;
    bad_lanczos.metrics.lanczos.max_iterations = 0;
    EXPECT_THROW(validate(bad_lanczos), contract_violation);
    percolation_engine_options bad_masking;
    bad_masking.compute_masking_thresholds = true;
    bad_masking.masking.n_seeds = 0;
    EXPECT_THROW(validate(bad_masking), contract_violation);
    // With the threshold sweep off, the masking knobs are never read.
    bad_masking.compute_masking_thresholds = false;
    EXPECT_NO_THROW(validate(bad_masking));
    EXPECT_NO_THROW(validate(percolation_engine_options{}));

    // The engine runs the same check when it is built, so no plan can hold
    // a degenerate one.
    EXPECT_THROW(std::make_shared<percolation_engine>(bad_lanczos), contract_violation);
    EXPECT_NO_THROW(std::make_shared<percolation_engine>(bad_masking));

    // Each threshold column replaces `masking.mode` and `masking.metrics`
    // before its search, so no value of either is rejected, and neither
    // moves a threshold.
    percolation_engine_options ignored = fast_options();
    ignored.masking.mode = lsn::failure_mode::kessler_cascade;
    ignored.masking.metrics.lanczos.max_iterations = 0;
    EXPECT_NO_THROW(validate(ignored));
    const auto topo = engine_walker();
    const evaluation_context context(topo, {}, astro::instant::j2000(), engine_grid());
    const auto thresholds = [&](const percolation_engine_options& options) {
        experiment_plan plan;
        plan.scenarios = {{"baseline", {}}};
        plan.engines = {std::make_shared<percolation_engine>(options)};
        const auto campaign = run_campaign(plan, context);
        return std::pair{
            campaign.value(0, "percolation.masking_threshold_random_loss"),
            campaign.value(0, "percolation.masking_threshold_plane_attack")};
    };
    EXPECT_EQ(thresholds(ignored), thresholds(fast_options()));
}

} // namespace
} // namespace ssplane::exp
