#include "exp/campaign.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

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

const demand::demand_model& test_demand()
{
    static const demand::demand_model model(test_population());
    return model;
}

lsn::lsn_topology small_walker(int planes = 6, int sats = 8)
{
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = planes;
    params.sats_per_plane = sats;
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

/// The tests' shell, gateways and grid as a step geometry of its own,
/// apart from any evaluation_context: campaign cells are checked against
/// direct sweep calls on it.
struct direct_inputs {
    lsn::lsn_topology topo = small_walker();
    lsn::sweep_geometry geometry{
        lsn::snapshot_builder{topo, traffic::stations_from_cities(4),
                              astro::instant::j2000(), short_grid().min_elevation_rad},
        lsn::sweep_offsets(short_grid().duration_s, short_grid().step_s)};

    lsn::failure_timeline timeline(const lsn::failure_scenario& scenario) const
    {
        return lsn::sample_failure_timeline(topo, scenario, geometry.offsets(),
                                            geometry.builder().epoch());
    }
};

std::vector<tempo::bulk_transfer_request> test_requests()
{
    return {{0, 2, 500.0, 0.0, 7200.0}, {1, 3, 800.0, 0.0, 7200.0}};
}

/// Baseline + random loss + plane attack + radiation: one of each mode.
std::vector<scenario_spec> four_scenarios(int n_planes, std::uint64_t seed)
{
    std::vector<scenario_spec> scenarios;
    scenarios.push_back({"baseline", {}});

    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = seed;
    scenarios.push_back({"random_25", loss});

    lsn::failure_scenario attack;
    attack.mode = lsn::failure_mode::plane_attack;
    attack.planes_attacked = 2;
    attack.seed = seed;
    scenarios.push_back({"attack_2", attack});

    lsn::failure_scenario radiation;
    radiation.mode = lsn::failure_mode::radiation_poisson;
    radiation.plane_daily_fluence.assign(static_cast<std::size_t>(n_planes), 2.0e10);
    radiation.horizon_days = 5.0 * 365.25;
    radiation.seed = seed;
    scenarios.push_back({"radiation_5y", radiation});
    return scenarios;
}

experiment_plan mixed_plan(int n_planes, std::uint64_t seed)
{
    experiment_plan plan;
    plan.scenarios = four_scenarios(n_planes, seed);
    plan.engines = {std::make_shared<survivability_engine>(),
                    std::make_shared<traffic_engine>(test_demand()),
                    std::make_shared<bulk_engine>(test_requests())};
    return plan;
}

TEST(Campaign, MixedCampaignMatchesLegacyEntryPointsBitForBit)
{
    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    const auto epoch = astro::instant::j2000();
    const auto grid = short_grid();
    const evaluation_context context(topo, stations, epoch, grid);

    const auto plan = mixed_plan(lsn::plane_count(topo), 7);
    const auto campaign = run_campaign(plan, context);
    ASSERT_EQ(campaign.rows.size(), 4u);
    ASSERT_EQ(campaign.n_engines, 3);

    const auto requests = test_requests();
    const direct_inputs direct;
    for (std::size_t r = 0; r < campaign.rows.size(); ++r) {
        const auto& scenario = campaign.rows[r].scenario;
        const int row = static_cast<int>(r);
        const auto timeline = direct.timeline(scenario);

        // Survivability entry point on the context-free geometry.
        const auto surv = lsn::run_scenario_sweep_timeline(direct.geometry, timeline);
        EXPECT_EQ(campaign.rows[r].n_failed, surv.metrics.n_failed);
        const auto& surv_cell = survivability_engine::detail(campaign.cell(row, 0));
        EXPECT_EQ(surv_cell.metrics.giant_component_fraction,
                  surv.metrics.giant_component_fraction);
        EXPECT_EQ(surv_cell.metrics.pair_reachable_fraction,
                  surv.metrics.pair_reachable_fraction);
        EXPECT_EQ(surv_cell.metrics.mean_latency_ms, surv.metrics.mean_latency_ms);
        EXPECT_EQ(surv_cell.metrics.p95_latency_ms, surv.metrics.p95_latency_ms);
        EXPECT_EQ(surv_cell.pair_reachable_fraction, surv.pair_reachable_fraction);
        EXPECT_EQ(surv_cell.pair_mean_latency_ms, surv.pair_mean_latency_ms);
        EXPECT_EQ(campaign.value(row, "survivability.p95_latency_ms"),
                  surv.metrics.p95_latency_ms);

        // Traffic entry point.
        const auto traf =
            traffic::run_traffic_sweep_timeline(direct.geometry, timeline, test_demand());
        const auto& traf_cell = traffic_engine::detail(campaign.cell(row, 1));
        EXPECT_EQ(traf_cell.metrics.offered_gbps_mean, traf.metrics.offered_gbps_mean);
        EXPECT_EQ(traf_cell.metrics.delivered_gbps_mean,
                  traf.metrics.delivered_gbps_mean);
        EXPECT_EQ(traf_cell.metrics.delivered_fraction, traf.metrics.delivered_fraction);
        EXPECT_EQ(traf_cell.metrics.mean_path_latency_ms,
                  traf.metrics.mean_path_latency_ms);
        EXPECT_EQ(traf_cell.step_offered_gbps, traf.step_offered_gbps);
        EXPECT_EQ(traf_cell.step_delivered_fraction, traf.step_delivered_fraction);
        EXPECT_EQ(campaign.value(row, "traffic.delivered_fraction"),
                  traf.metrics.delivered_fraction);

        // Bulk entry point.
        const auto bulk =
            tempo::run_bulk_sweep_timeline(direct.geometry, timeline, requests);
        const auto& bulk_cell = bulk_engine::detail(campaign.cell(row, 2));
        EXPECT_EQ(bulk_cell.n_failed, bulk.n_failed);
        EXPECT_EQ(bulk_cell.routing.offered_gb, bulk.routing.offered_gb);
        EXPECT_EQ(bulk_cell.routing.delivered_gb, bulk.routing.delivered_gb);
        EXPECT_EQ(bulk_cell.routing.delivered_fraction,
                  bulk.routing.delivered_fraction);
        EXPECT_EQ(bulk_cell.routing.max_buffer_gb, bulk.routing.max_buffer_gb);
        ASSERT_EQ(bulk_cell.routing.requests.size(), bulk.routing.requests.size());
        for (std::size_t q = 0; q < bulk.routing.requests.size(); ++q) {
            EXPECT_EQ(bulk_cell.routing.requests[q].delivered_gb,
                      bulk.routing.requests[q].delivered_gb);
            EXPECT_EQ(bulk_cell.routing.requests[q].completion_s,
                      bulk.routing.requests[q].completion_s);
        }
        EXPECT_EQ(campaign.value(row, "bulk.delivered_gb"), bulk.routing.delivered_gb);
    }
}

TEST(Campaign, BitIdenticalAcrossThreadCounts)
{
    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    const auto epoch = astro::instant::j2000();

    auto plan = mixed_plan(lsn::plane_count(topo), 3);
    plan.seeds = {1, 2}; // seed grid on top of the four templates

    std::vector<campaign_result> runs;
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        const evaluation_context context(topo, stations, epoch, short_grid());
        runs.push_back(run_campaign(plan, context));
    }
    set_thread_count(0);

    for (std::size_t i = 1; i < runs.size(); ++i) {
        ASSERT_EQ(runs[i].rows.size(), runs[0].rows.size());
        ASSERT_EQ(runs[i].cells.size(), runs[0].cells.size());
        for (std::size_t r = 0; r < runs[0].rows.size(); ++r) {
            EXPECT_EQ(runs[i].rows[r].name, runs[0].rows[r].name);
            EXPECT_EQ(runs[i].rows[r].n_failed, runs[0].rows[r].n_failed);
        }
        for (std::size_t c = 0; c < runs[0].cells.size(); ++c)
            EXPECT_EQ(runs[i].cells[c].values, runs[0].cells[c].values);
    }
}

TEST(Campaign, SeedGridExpandsEveryTemplatePerSeed)
{
    experiment_plan plan;
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.1;
    loss.seed = 99; // overridden by the grid
    plan.scenarios = {{"baseline", {}}, {"loss", loss}};
    plan.seeds = {5, 6, 7};

    const auto expanded = expand_scenarios(plan);
    ASSERT_EQ(expanded.size(), 6u);
    EXPECT_EQ(expanded[0].name, "baseline#5");
    EXPECT_EQ(expanded[3].name, "loss#5");
    EXPECT_EQ(expanded[5].name, "loss#7");
    for (std::size_t i = 0; i < expanded.size(); ++i)
        EXPECT_EQ(expanded[i].scenario.seed, plan.seeds[i % 3]);

    // No seed grid: templates pass through untouched.
    plan.seeds.clear();
    const auto as_is = expand_scenarios(plan);
    ASSERT_EQ(as_is.size(), 2u);
    EXPECT_EQ(as_is[1].name, "loss");
    EXPECT_EQ(as_is[1].scenario.seed, 99u);
}

TEST(Campaign, SharedMasksAreDedupedAcrossEngines)
{
    const auto topo = small_walker(4, 4);
    const auto stations = traffic::stations_from_cities(4);
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());

    // 4 scenarios x 3 engines = 12 cells, but only 4 distinct draws —
    // every engine of a row shares that row's timeline.
    const auto campaign =
        run_campaign(mixed_plan(lsn::plane_count(topo), 11), context);
    ASSERT_EQ(campaign.cells.size(), 12u);
    EXPECT_EQ(context.timeline_cache_size(), 4u);
}

TEST(Campaign, CellsSharingAMaskEvaluateOnce)
{
    const auto topo = small_walker(4, 4);
    const auto stations = traffic::stations_from_cities(4);
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());

    // A seeded grid over a `none` baseline: every seed dedupes onto the one
    // all-zero mask, so the three rows share each engine's evaluation (the
    // detail payload is the same object, not merely an equal value).
    experiment_plan plan;
    plan.scenarios = {{"baseline", {}}};
    plan.seeds = {1, 2, 3};
    plan.engines = {std::make_shared<survivability_engine>(),
                    std::make_shared<traffic_engine>(test_demand())};
    const auto campaign = run_campaign(plan, context);
    ASSERT_EQ(campaign.rows.size(), 3u);
    EXPECT_EQ(context.timeline_cache_size(), 1u);
    for (int r = 1; r < 3; ++r) {
        EXPECT_EQ(campaign.cell(r, 0).detail.get(), campaign.cell(0, 0).detail.get());
        EXPECT_EQ(campaign.cell(r, 1).detail.get(), campaign.cell(0, 1).detail.get());
        EXPECT_EQ(campaign.cell(r, 0).values, campaign.cell(0, 0).values);
    }
}

TEST(Campaign, ValidatesScenariosAndEngineOptionsBeforeRunning)
{
    const auto topo = small_walker(3, 4);
    const auto stations = traffic::stations_from_cities(4);
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());

    // No engines.
    experiment_plan empty;
    empty.scenarios = {{"baseline", {}}};
    EXPECT_THROW(run_campaign(empty, context), contract_violation);

    // No scenarios fails just as loudly.
    experiment_plan no_scenarios;
    no_scenarios.engines = {std::make_shared<survivability_engine>()};
    EXPECT_THROW(run_campaign(no_scenarios, context), contract_violation);

    // Out-of-range scenario knob.
    experiment_plan bad_scenario;
    lsn::failure_scenario bad;
    bad.mode = lsn::failure_mode::random_loss;
    bad.loss_fraction = -0.5;
    bad_scenario.scenarios = {{"bad", bad}};
    bad_scenario.engines = {std::make_shared<survivability_engine>()};
    EXPECT_THROW(run_campaign(bad_scenario, context), contract_violation);

    // Degenerate engine options fail when the engine is built, so no plan
    // can hold one.
    traffic::traffic_sweep_options opts;
    opts.capacity.k_rounds = 0;
    EXPECT_THROW(std::make_shared<traffic_engine>(test_demand(), opts),
                 contract_violation);
    opts = {};
    opts.matrix.total_demand_gbps = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(std::make_shared<traffic_engine>(test_demand(), opts),
                 contract_violation);

    // Two engines sharing a name would collide in the flattened column
    // table — rejected instead of silently misreading.
    experiment_plan duplicate_names;
    duplicate_names.scenarios = {{"baseline", {}}};
    duplicate_names.engines = {std::make_shared<traffic_engine>(test_demand()),
                               std::make_shared<traffic_engine>(test_demand())};
    EXPECT_THROW(run_campaign(duplicate_names, context), contract_violation);

    // Likewise two scenario templates expanding to the same row name.
    experiment_plan duplicate_rows;
    duplicate_rows.scenarios = {{"baseline", {}}, {"baseline", {}}};
    duplicate_rows.engines = {std::make_shared<survivability_engine>()};
    EXPECT_THROW(run_campaign(duplicate_rows, context), contract_violation);
}

TEST(Campaign, CsvExportCarriesAxesAndFlattenedColumns)
{
    const auto topo = small_walker(4, 4);
    const auto stations = traffic::stations_from_cities(4);
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());
    const auto campaign =
        run_campaign(mixed_plan(lsn::plane_count(topo), 13), context);

    std::ostringstream out;
    campaign.write_csv(out);
    const std::string text = out.str();

    // Header: fixed scenario axes, then every "<engine>.<column>" name.
    const std::string header = text.substr(0, text.find('\n'));
    EXPECT_EQ(header.rfind("scenario,mode,loss_fraction,planes_attacked,"
                           "horizon_days,seed,n_failed,",
                           0),
              0u);
    for (const auto& column : campaign.columns)
        EXPECT_NE(header.find(column), std::string::npos) << column;

    // One line per row plus the header.
    const auto lines = static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
    EXPECT_EQ(lines, campaign.rows.size() + 1);

    // Spot-check: the baseline row starts with its name and mode.
    EXPECT_NE(text.find("\nbaseline,none,"), std::string::npos);
    EXPECT_NE(text.find("\nradiation_5y,radiation_poisson,"), std::string::npos);
}

TEST(Campaign, CellAccessAndDetailCastsAreGuarded)
{
    const auto topo = small_walker(4, 4);
    const auto stations = traffic::stations_from_cities(4);
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());
    experiment_plan plan;
    plan.scenarios = {{"baseline", {}}};
    plan.engines = {std::make_shared<survivability_engine>(),
                    std::make_shared<traffic_engine>(test_demand())};
    const auto campaign = run_campaign(plan, context);

    // Out-of-range indices and unknown columns throw instead of reading
    // out of bounds.
    EXPECT_THROW(campaign.cell(1, 0), contract_violation);
    EXPECT_THROW(campaign.cell(0, 2), contract_violation);
    EXPECT_THROW(campaign.cell(-1, 0), contract_violation);
    EXPECT_THROW(campaign.value(0, "traffic.no_such_metric"), contract_violation);

    // Engines resolve by name; unknown names throw.
    EXPECT_EQ(campaign.engine_index("survivability"), 0);
    EXPECT_EQ(campaign.engine_index("traffic"), 1);
    EXPECT_THROW(campaign.engine_index("bulk"), contract_violation);

    // Asking the wrong engine for a cell's detail is a contract violation,
    // not a reinterpretation of the payload.
    EXPECT_NO_THROW(survivability_engine::detail(campaign.cell(0, 0)));
    EXPECT_THROW(survivability_engine::detail(campaign.cell(0, 1)),
                 contract_violation);
    EXPECT_THROW(traffic_engine::detail(campaign.cell(0, 0)), contract_violation);
    EXPECT_THROW(bulk_engine::detail(campaign.cell(0, 1)), contract_violation);
}

/// Cascade + storm + adversary templates — one of each timeline mode.
std::vector<scenario_spec> timeline_scenarios(int n_planes)
{
    std::vector<scenario_spec> scenarios;
    scenarios.push_back({"baseline", {}});

    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 2;
    cascade.cascade_base_daily_hazard = 0.2;
    cascade.cascade_escalation = 1.0;
    cascade.cascade_cooldown_s = 4.0 * 3600.0;
    cascade.seed = 5;
    scenarios.push_back({"cascade", cascade});

    lsn::failure_scenario storm;
    storm.mode = lsn::failure_mode::solar_storm;
    storm.plane_daily_fluence.assign(static_cast<std::size_t>(n_planes), 5.0e10);
    storm.storm_start_s = 1800.0;
    storm.storm_duration_s = 3600.0;
    storm.storm_fluence_multiplier = 5000.0;
    storm.seed = 3;
    scenarios.push_back({"storm", storm});

    lsn::failure_scenario adversary;
    adversary.mode = lsn::failure_mode::greedy_adversary;
    adversary.adversary_budget = 2;
    adversary.adversary_strike_interval_steps = 1;
    adversary.adversary_first_strike_step = 1;
    scenarios.push_back({"adversary", adversary});
    return scenarios;
}

TEST(Campaign, TimelineScenariosRunThroughAllEnginesBitIdenticallyAcrossThreads)
{
    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    // Storm epochs need an active sun; anchor near the cycle-24 maximum.
    const auto epoch = astro::instant::from_calendar(2014, 4, 1, 0, 0, 0.0);

    experiment_plan plan;
    plan.scenarios = timeline_scenarios(lsn::plane_count(topo));
    plan.engines = {std::make_shared<survivability_engine>(),
                    std::make_shared<traffic_engine>(test_demand()),
                    std::make_shared<bulk_engine>(test_requests())};

    std::vector<campaign_result> runs;
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        evaluation_context context(topo, stations, epoch, short_grid());
        context.set_adversary_oracle(test_demand());
        runs.push_back(run_campaign(plan, context));
    }
    set_thread_count(0);

    for (std::size_t i = 1; i < runs.size(); ++i) {
        ASSERT_EQ(runs[i].rows.size(), runs[0].rows.size());
        ASSERT_EQ(runs[i].cells.size(), runs[0].cells.size());
        for (std::size_t r = 0; r < runs[0].rows.size(); ++r)
            EXPECT_EQ(runs[i].rows[r].n_failed, runs[0].rows[r].n_failed);
        for (std::size_t c = 0; c < runs[0].cells.size(); ++c)
            EXPECT_EQ(runs[i].cells[c].values, runs[0].cells[c].values);
    }

    // The timeline scenarios actually bit: every non-baseline row lost
    // satellites, and the adversary's loss is exactly its plane budget.
    const auto& campaign = runs[0];
    EXPECT_EQ(campaign.rows[0].n_failed, 0);
    for (std::size_t r = 1; r < campaign.rows.size(); ++r)
        EXPECT_GT(campaign.rows[r].n_failed, 0) << campaign.rows[r].name;
    EXPECT_EQ(campaign.rows[3].n_failed,
              2 * topo.satellites.size() / 6); // 2 planes of a 6-plane grid

    // Degradation-trajectory scalars: the baseline never partitions and
    // has nothing to recover from; degrading scenarios report sane values.
    EXPECT_EQ(campaign.value(0, "survivability.time_to_partition_s"), -1.0);
    EXPECT_EQ(campaign.value(0, "survivability.recovery_headroom"), 0.0);
    for (int r = 0; r < 4; ++r) {
        EXPECT_GE(campaign.value(r, "survivability.recovery_headroom"), 0.0);
        EXPECT_LE(campaign.value(r, "traffic.min_step_delivered_fraction"),
                  campaign.value(r, "traffic.delivered_fraction") + 1e-12);
    }
}

TEST(Campaign, AdversaryTimeVaryingAndServingRowsAreByteIdenticalAcrossThreads)
{
    // The whole task graph: sampled and time-varying rows' cells run while
    // the adversary is generated, its rows' cells follow, and the serving
    // batch runs last. Every CSV byte, cache telemetry included, must come
    // out the same at any pool size.
    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    const auto epoch = astro::instant::from_calendar(2014, 4, 1, 0, 0, 0.0);
    serve::serving_options serving;
    serving.n_sessions = 5000;
    serving.seed = 3;
    percolation_engine_options percolation;
    percolation.compute_masking_thresholds = false;

    experiment_plan plan;
    plan.scenarios = timeline_scenarios(lsn::plane_count(topo));
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = 3;
    plan.scenarios.push_back({"random_25", loss});
    plan.scenarios.push_back({"baseline_again", {}});
    plan.engines = {std::make_shared<survivability_engine>(),
                    std::make_shared<traffic_engine>(test_demand()),
                    std::make_shared<serving_engine>(test_population(), serving),
                    std::make_shared<percolation_engine>(percolation)};

    std::vector<std::string> tables;
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        evaluation_context context(topo, stations, epoch, short_grid());
        context.set_adversary_oracle(test_demand());
        const auto campaign = run_campaign(plan, context);
        // Rows keep the plan's order, whatever order their timelines
        // resolved in.
        ASSERT_EQ(campaign.rows.size(), plan.scenarios.size());
        for (std::size_t r = 0; r < campaign.rows.size(); ++r)
            EXPECT_EQ(campaign.rows[r].name, plan.scenarios[r].name);
        EXPECT_GT(campaign.rows[3].n_failed, 0); // the adversary struck
        EXPECT_EQ(campaign.cache.timeline_misses, 5u);
        EXPECT_EQ(campaign.cache.timeline_hits, 1u);
        std::ostringstream out;
        campaign.write_csv(out);
        campaign.write_step_csv(out);
        tables.push_back(out.str());
    }
    set_thread_count(0);
    EXPECT_EQ(tables[1], tables[0]);
    EXPECT_EQ(tables[2], tables[0]);
}

/// A test engine whose cells take a while, so tasks are still queued when
/// an error leaves `run_campaign`. With `fail` set it throws on the one
/// static timeline that loses satellites (the random-loss row).
class slow_engine final : public metric_engine {
public:
    explicit slow_engine(bool fail) : metric_engine("slow", {"n_failed"}), fail_(fail) {}

    engine_output evaluate(const evaluation_context& /*context*/,
                           const lsn::failure_timeline& timeline) const override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (fail_ && timeline.is_static() && timeline.final_n_failed() > 0)
            throw std::runtime_error("slow engine failed a cell");
        engine_output out;
        out.values = {static_cast<double>(timeline.final_n_failed())};
        return out;
    }

private:
    bool fail_;
};

TEST(Campaign, ErrorsLeaveOnlyAfterEveryQueuedCellHasFinished)
{
    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    const auto epoch = astro::instant::from_calendar(2014, 4, 1, 0, 0, 0.0);
    experiment_plan plan;
    plan.scenarios = timeline_scenarios(lsn::plane_count(topo));
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = 3;
    plan.scenarios.push_back({"random_25", loss});

    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(threads);
        set_thread_count(threads);
        // A sampled row's cell fails while the adversary is generated: the
        // campaign throws that error once every other cell has run.
        plan.engines = {std::make_shared<survivability_engine>(),
                        std::make_shared<slow_engine>(true),
                        std::make_shared<traffic_engine>(test_demand())};
        evaluation_context armed(topo, stations, epoch, short_grid());
        armed.set_adversary_oracle(test_demand());
        std::string error;
        try {
            (void)run_campaign(plan, armed);
        } catch (const std::runtime_error& e) {
            error = e.what();
        }
        EXPECT_EQ(error, "slow engine failed a cell");

        // Without an oracle the adversary's lookup throws while the sampled
        // rows' cells are still queued; they finish before the frame goes.
        plan.engines = {std::make_shared<slow_engine>(false),
                        std::make_shared<survivability_engine>()};
        const evaluation_context unarmed(topo, stations, epoch, short_grid());
        EXPECT_THROW((void)run_campaign(plan, unarmed), contract_violation);
    }
    set_thread_count(0);
}

TEST(Campaign, AdversaryScenariosRequireTheOracle)
{
    const auto topo = small_walker(4, 4);
    const auto stations = traffic::stations_from_cities(4);
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());

    experiment_plan plan;
    lsn::failure_scenario adversary;
    adversary.mode = lsn::failure_mode::greedy_adversary;
    adversary.adversary_budget = 1;
    plan.scenarios = {{"adversary", adversary}};
    plan.engines = {std::make_shared<survivability_engine>()};
    EXPECT_THROW(run_campaign(plan, context), contract_violation);
}

TEST(Campaign, TimelinesAreCachedOncePerDistinctScenario)
{
    const auto topo = small_walker(4, 4);
    const auto stations = traffic::stations_from_cities(4);
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());

    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 1;
    cascade.cascade_base_daily_hazard = 0.1;
    cascade.seed = 5;

    experiment_plan plan;
    plan.scenarios = {{"baseline", {}}, {"cascade", cascade}};
    plan.engines = {std::make_shared<survivability_engine>(),
                    std::make_shared<traffic_engine>(test_demand())};
    const auto campaign = run_campaign(plan, context);

    // One timeline per distinct scenario, static baseline included.
    EXPECT_EQ(context.timeline_cache_size(), 2u);

    // Rows sharing a timeline share the evaluation; distinct ones do not.
    const auto again = run_campaign(plan, context);
    EXPECT_EQ(context.timeline_cache_size(), 2u);
    for (std::size_t c = 0; c < campaign.cells.size(); ++c)
        EXPECT_EQ(campaign.cells[c].values, again.cells[c].values);
}

TEST(Campaign, StaticScenarioCampaignIsByteIdenticalToPreTimelineBehavior)
{
    // The static-mask acceptance gate: a static-mode campaign CSV must carry
    // exactly the numbers of a sweep over the bare `sample_failures` mask
    // (the columns grew, the shared ones did not move).
    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    const auto epoch = astro::instant::j2000();
    const auto grid = short_grid();
    const evaluation_context context(topo, stations, epoch, grid);

    const auto plan = mixed_plan(lsn::plane_count(topo), 7);
    const auto campaign = run_campaign(plan, context);
    const direct_inputs direct;
    for (std::size_t r = 0; r < campaign.rows.size(); ++r) {
        const auto& scenario = campaign.rows[r].scenario;
        const int row = static_cast<int>(r);
        const auto static_mask = lsn::failure_timeline::from_static_mask(
            lsn::sample_failures(topo, scenario));
        const auto surv = lsn::run_scenario_sweep_timeline(direct.geometry, static_mask);
        EXPECT_EQ(campaign.value(row, "survivability.giant_component_fraction"),
                  surv.metrics.giant_component_fraction);
        EXPECT_EQ(campaign.value(row, "survivability.p95_latency_ms"),
                  surv.metrics.p95_latency_ms);
        const auto traf = traffic::run_traffic_sweep_timeline(
            direct.geometry, static_mask, test_demand());
        EXPECT_EQ(campaign.value(row, "traffic.delivered_gbps_mean"),
                  traf.metrics.delivered_gbps_mean);
    }
}

TEST(Campaign, StepCsvCarriesPerStepDegradationTraces)
{
    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());

    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 2;
    cascade.cascade_base_daily_hazard = 0.3;
    cascade.cascade_escalation = 1.0;
    cascade.seed = 5;

    experiment_plan plan;
    plan.scenarios = {{"baseline", {}}, {"cascade", cascade}};
    plan.engines = {std::make_shared<survivability_engine>(),
                    std::make_shared<traffic_engine>(test_demand()),
                    std::make_shared<bulk_engine>(test_requests())};
    const auto campaign = run_campaign(plan, context);

    // Flattened step columns: survivability's three + traffic's three (the
    // bulk engine has no per-step view).
    ASSERT_EQ(campaign.step_columns.size(), 6u);
    EXPECT_EQ(campaign.step_columns[0], "survivability.n_failed");
    EXPECT_EQ(campaign.step_columns[3], "traffic.offered_gbps");

    std::ostringstream out;
    campaign.write_step_csv(out);
    const std::string text = out.str();
    const std::string header = text.substr(0, text.find('\n'));
    EXPECT_EQ(header.rfind("scenario,step,offset_s,", 0), 0u);
    for (const auto& column : campaign.step_columns)
        EXPECT_NE(header.find(column), std::string::npos) << column;

    // One line per (scenario, step) plus the header.
    const auto lines =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
    EXPECT_EQ(lines, campaign.rows.size() * context.offsets().size() + 1);

    // The cascade's trace rows carry its growing loss count: the last step
    // line ends with the timeline's final state, the first with step 0's.
    const auto& surv_cell = survivability_engine::detail(
        campaign.cell(1, campaign.engine_index("survivability")));
    EXPECT_EQ(surv_cell.step_n_failed.front(), 2);
    EXPECT_GE(surv_cell.step_n_failed.back(), surv_cell.step_n_failed.front());
    EXPECT_NE(text.find("\ncascade,0,"), std::string::npos);
    EXPECT_NE(text.find("\ncascade,3,"), std::string::npos);
}

TEST(Campaign, PerStepBulkEngineReportsTheReplicationFloor)
{
    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    const auto epoch = astro::instant::j2000();
    const evaluation_context context(topo, stations, epoch, short_grid());

    experiment_plan plan;
    plan.scenarios = {{"baseline", {}}};
    plan.engines = {
        std::make_shared<bulk_engine>(test_requests()),
        std::make_shared<bulk_engine>(test_requests(), tempo::bulk_route_options{},
                                      /*per_step_baseline=*/true)};
    const auto campaign = run_campaign(plan, context);
    EXPECT_EQ(campaign.engine_names[0], "bulk");
    EXPECT_EQ(campaign.engine_names[1], "bulk_per_step");

    const direct_inputs direct;
    const auto per_step_floor = tempo::run_bulk_sweep_per_step_baseline_timeline(
        direct.geometry, {}, test_requests());
    EXPECT_EQ(campaign.value(0, "bulk_per_step.delivered_gb"),
              per_step_floor.routing.delivered_gb);
    // Here store-and-forward delivers at least the per-step floor. That is
    // no general bound: once requests compete, its input-order priority can
    // leave it below (tempo/bulk_router.h).
    EXPECT_GE(campaign.value(0, "bulk.delivered_gb"),
              campaign.value(0, "bulk_per_step.delivered_gb"));
}

TEST(Campaign, ZeroDurationGridIsRefusedWhenTheContextIsBuilt)
{
    // A grid has at least one step: a zero or negative duration would run
    // every engine to zeros that read as total collapse, so the context
    // refuses it before any engine runs.
    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    for (const double duration_s : {0.0, -1800.0}) {
        lsn::scenario_sweep_options grid = short_grid();
        grid.duration_s = duration_s;
        EXPECT_THROW((void)evaluation_context(topo, stations, astro::instant::j2000(), grid),
                     contract_violation)
            << duration_s;
    }
}

} // namespace
} // namespace ssplane::exp
