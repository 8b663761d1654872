// The serving engine through the campaign API: user-level SLO columns show
// up under the "serving." prefix (scalar table and step-trace table),
// degenerate knobs are rejected when the engine is built, SLO columns are
// bit-identical across thread counts, and the step-trace header has its
// own collision guard (step columns are a separate namespace from scalar
// columns).
#include "exp/campaign.h"

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::exp {
namespace {

const demand::population_model& test_population()
{
    static const demand::population_model model;
    return model;
}

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

lsn::scenario_sweep_options short_grid()
{
    lsn::scenario_sweep_options grid;
    grid.duration_s = 7200.0;
    grid.step_s = 1800.0;
    grid.min_elevation_rad = deg2rad(25.0);
    return grid;
}

serve::serving_options small_serving()
{
    serve::serving_options options;
    options.n_sessions = 20000;
    options.seed = 5;
    return options;
}

experiment_plan serving_plan(serve::serving_options options = small_serving())
{
    experiment_plan plan;
    plan.scenarios.push_back({"baseline", {}});
    lsn::failure_scenario attack;
    attack.mode = lsn::failure_mode::plane_attack;
    attack.planes_attacked = 2;
    attack.seed = 9;
    plan.scenarios.push_back({"attack_2", attack});
    plan.engines = {std::make_shared<survivability_engine>(),
                    std::make_shared<serving_engine>(test_population(), options)};
    return plan;
}

TEST(ServingEngine, ReportsUserSlosThroughTheCampaignTable)
{
    const auto topo = small_walker();
    const auto stations = lsn::default_ground_stations();
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());
    const auto campaign = run_campaign(serving_plan(), context);
    ASSERT_EQ(campaign.rows.size(), 2u);

    // Every serving column lands in the flattened table with the engine
    // prefix, alongside the gateway-level survivability columns.
    for (const char* column :
         {"serving.sessions_homed", "serving.served_fraction_mean",
          "serving.p50_session_rate_mbps", "serving.p99_session_rate_mbps",
          "serving.sessions_dropped_max", "serving.time_to_restore_s",
          "serving.recovery_headroom"}) {
        EXPECT_NE(std::find(campaign.columns.begin(), campaign.columns.end(),
                            column),
                  campaign.columns.end())
            << column;
    }
    for (int row = 0; row < 2; ++row) {
        EXPECT_GT(campaign.value(row, "serving.sessions_homed"), 0.0);
        EXPECT_GE(campaign.value(row, "serving.served_fraction_mean"), 0.0);
        EXPECT_LE(campaign.value(row, "serving.served_fraction_mean"), 1.0);
    }
    // Both rows serve the *same* session grid, sampled when the engine was
    // built.
    const auto engine = std::dynamic_pointer_cast<const serving_engine>(
        campaign.engines[campaign.engine_index("serving")]);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(static_cast<double>(engine->grid().total_sessions),
              campaign.value(0, "serving.sessions_homed"));

    // The detail payload is the full sweep result, step traces included.
    const auto& cell = campaign.cell(0, campaign.engine_index("serving"));
    const auto& detail = serving_engine::detail(cell);
    EXPECT_EQ(detail.step_served_fraction.size(),
              campaign.step_offsets_s.size());
}

TEST(ServingEngine, SloColumnsBitIdenticalAcrossThreadCounts)
{
    const auto topo = small_walker();
    const auto stations = lsn::default_ground_stations();
    const evaluation_context reference_context(
        topo, stations, astro::instant::j2000(), short_grid());
    const auto reference = run_campaign(serving_plan(), reference_context);

    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        const evaluation_context context(topo, stations, astro::instant::j2000(),
                                         short_grid());
        const auto campaign = run_campaign(serving_plan(), context);
        for (std::size_t r = 0; r < reference.rows.size(); ++r) {
            for (const auto& column : reference.columns) {
                if (column.rfind("serving.", 0) != 0) continue;
                EXPECT_EQ(campaign.value(static_cast<int>(r), column),
                          reference.value(static_cast<int>(r), column))
                    << column << " row " << r << " threads " << threads;
            }
        }
    }
    set_thread_count(0);
}

TEST(ServingEngine, StepCsvHeaderCarriesTheEnginePrefixOnEveryTraceColumn)
{
    const auto topo = small_walker();
    const auto stations = lsn::default_ground_stations();
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());
    const auto campaign = run_campaign(serving_plan(), context);

    std::ostringstream out;
    campaign.write_step_csv(out);
    std::istringstream in(out.str());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));

    // The fixed axes, then every engine's traces flattened in engine order
    // — each carrying its engine's name as prefix, none bare.
    std::vector<std::string> fields;
    std::istringstream fields_in(header);
    for (std::string field; std::getline(fields_in, field, ',');)
        fields.push_back(field);
    ASSERT_GE(fields.size(), 3u);
    EXPECT_EQ(fields[0], "scenario");
    EXPECT_EQ(fields[1], "step");
    EXPECT_EQ(fields[2], "offset_s");
    for (std::size_t i = 3; i < fields.size(); ++i) {
        const bool prefixed =
            fields[i].rfind("survivability.", 0) == 0 ||
            fields[i].rfind("serving.", 0) == 0;
        EXPECT_TRUE(prefixed) << "bare step column: " << fields[i];
    }
    EXPECT_NE(std::find(fields.begin(), fields.end(), "serving.served_fraction"),
              fields.end());
    EXPECT_NE(std::find(fields.begin(), fields.end(),
                        "serving.p99_session_rate_mbps"),
              fields.end());

    // Body rows: one line per (scenario, step), field count == header's.
    std::size_t body_lines = 0;
    for (std::string line; std::getline(in, line);) {
        ++body_lines;
        EXPECT_EQ(std::count(line.begin(), line.end(), ','),
                  std::count(header.begin(), header.end(), ','));
    }
    EXPECT_EQ(body_lines,
              campaign.rows.size() * campaign.step_offsets_s.size());
}

TEST(ServingEngine, ServesACampaignAfterItsPopulationModelIsGone)
{
    // The engine samples its grid when it is built and keeps nothing of the
    // population, so it serves a campaign after the model is destroyed, and
    // serves it exactly as an engine whose model lives on.
    std::shared_ptr<const serving_engine> engine;
    {
        const demand::population_model population;
        engine = std::make_shared<serving_engine>(population, small_serving());
    }
    const auto topo = small_walker();
    const auto stations = lsn::default_ground_stations();
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());
    experiment_plan orphaned = serving_plan();
    orphaned.engines = {engine};
    const auto campaign = run_campaign(orphaned, context);
    const auto reference = run_campaign(serving_plan(), context);
    ASSERT_EQ(campaign.rows.size(), reference.rows.size());
    for (std::size_t r = 0; r < reference.rows.size(); ++r)
        for (const auto& column : campaign.columns)
            EXPECT_EQ(campaign.value(static_cast<int>(r), column),
                      reference.value(static_cast<int>(r), column))
                << column << " row " << r;
    EXPECT_GT(campaign.value(0, "serving.sessions_homed"), 0.0);
}

TEST(ServingEngine, DegenerateOptionsRejectedBeforeAnyCellEvaluates)
{
    serve::serving_options bad = small_serving();
    bad.n_sessions = 0;
    // The engine rejects the options when it is built, so no plan holds it.
    EXPECT_THROW(serving_plan(bad), contract_violation);
}

/// Minimal engine with NO scalar columns and one step-trace column — the
/// shape that used to slip past the scalar-column collision guard.
class step_only_engine final : public metric_engine {
public:
    step_only_engine() : metric_engine("stepper", {}, {"x"}) {}

    engine_output evaluate(const evaluation_context& context,
                           const lsn::failure_timeline&) const override
    {
        engine_output out;
        out.detail = std::make_shared<const std::vector<double>>(
            context.offsets().size(), 0.0);
        out.detail_type = &typeid(std::vector<double>);
        return out;
    }
    std::vector<std::vector<double>> step_traces(
        const engine_output& output) const override
    {
        return {*static_cast<const std::vector<double>*>(output.detail.get())};
    }
};

TEST(ServingEngine, StepTraceColumnCollisionsFailLoudly)
{
    const auto topo = small_walker();
    const auto stations = lsn::default_ground_stations();
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());
    experiment_plan plan;
    plan.scenarios.push_back({"baseline", {}});
    plan.engines = {std::make_shared<step_only_engine>(),
                    std::make_shared<step_only_engine>()};
    EXPECT_THROW(run_campaign(plan, context), contract_violation);

    // One instance is fine: no scalar columns, one prefixed trace column.
    plan.engines = {std::make_shared<step_only_engine>()};
    const auto campaign = run_campaign(plan, context);
    ASSERT_EQ(campaign.step_columns.size(), 1u);
    EXPECT_EQ(campaign.step_columns[0], "stepper.x");
}

} // namespace
} // namespace ssplane::exp
