// Every engine column reads the field it names. A test-side table maps each
// scalar and step column of the six engines to the field of the engine's
// typed `detail()` result that the name denotes (the derived trajectory
// columns are recomputed from the detail's traces, the masking thresholds
// from `spectral::find_masking_threshold`), and a small campaign must read
// the same number through `campaign_result::value` and `step_traces`. The
// campaign is chosen so that no two columns of an engine read equal in
// every row: swapping two names in a column list then fails.
#include "exp/campaign.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/angles.h"

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

lsn::lsn_topology test_walker()
{
    constellation::walker_parameters params;
    params.altitude_m = 1200.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 10;
    params.sats_per_plane = 10;
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

percolation_engine_options percolation_options()
{
    percolation_engine_options options;
    options.compute_masking_thresholds = true;
    options.masking.fraction_step = 0.125;
    options.masking.max_fraction = 1.0;
    options.masking.n_seeds = 2;
    // A capped solver flags some steps' λ₂ as unconverged.
    options.metrics.lanczos.max_iterations = 8;
    return options;
}

/// Baseline, two static losses and a cascade that moves every trajectory.
std::vector<scenario_spec> scenarios()
{
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = 3;

    lsn::failure_scenario attack;
    attack.mode = lsn::failure_mode::plane_attack;
    attack.planes_attacked = 2;
    attack.seed = 9;

    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 20;
    cascade.cascade_base_daily_hazard = 4.0;
    cascade.cascade_escalation = 8.0;
    cascade.seed = 5;
    return {{"baseline", {}}, {"random_25", loss}, {"attack_2", attack},
            {"cascade", cascade}};
}

using scalar_reader = std::function<double(const engine_output&)>;
using trace_reader = std::function<std::vector<double>(const engine_output&)>;

/// What each column of one engine names.
struct column_table {
    std::map<std::string, scalar_reader> columns;
    std::map<std::string, trace_reader> step_columns;
};

template <class T>
std::vector<double> as_doubles(const std::vector<T>& values)
{
    return {values.begin(), values.end()};
}

double min_of(const std::vector<double>& trace)
{
    return trace.empty() ? 0.0 : *std::min_element(trace.begin(), trace.end());
}

double headroom(const std::vector<double>& trace)
{
    return trace.empty() ? 0.0 : trace.back() - min_of(trace);
}

std::map<std::string, column_table> column_tables(const lsn::lsn_topology& topology,
                                                  const std::vector<double>& offsets)
{
    const auto surv = [](const engine_output& cell) -> const auto& {
        return survivability_engine::detail(cell);
    };
    const auto traf = [](const engine_output& cell) -> const auto& {
        return traffic_engine::detail(cell);
    };
    const auto bulk = [](const engine_output& cell) -> const auto& {
        return bulk_engine::detail(cell).routing;
    };
    const auto perc = [](const engine_output& cell) -> const auto& {
        return percolation_engine::detail(cell);
    };
    const auto serv = [](const engine_output& cell) -> const auto& {
        return serving_engine::detail(cell);
    };
    const auto threshold = [&topology](lsn::failure_mode mode) {
        auto options = percolation_options().masking;
        options.metrics = percolation_options().metrics;
        options.mode = mode;
        return spectral::find_masking_threshold(topology, options).threshold_fraction;
    };
    const double random_loss_threshold = threshold(lsn::failure_mode::random_loss);
    const double plane_attack_threshold = threshold(lsn::failure_mode::plane_attack);

    const column_table bulk_table{
        {{"offered_gb", [=](const auto& c) { return bulk(c).offered_gb; }},
         {"delivered_gb", [=](const auto& c) { return bulk(c).delivered_gb; }},
         {"delivered_fraction", [=](const auto& c) { return bulk(c).delivered_fraction; }},
         {"max_buffer_gb", [=](const auto& c) { return bulk(c).max_buffer_gb; }}},
        {}};

    return {
        {"survivability",
         {{{"n_failed",
            [=](const auto& c) { return static_cast<double>(surv(c).metrics.n_failed); }},
           {"giant_component_fraction",
            [=](const auto& c) { return surv(c).metrics.giant_component_fraction; }},
           {"pair_reachable_fraction",
            [=](const auto& c) { return surv(c).metrics.pair_reachable_fraction; }},
           {"mean_latency_ms", [=](const auto& c) { return surv(c).metrics.mean_latency_ms; }},
           {"p95_latency_ms", [=](const auto& c) { return surv(c).metrics.p95_latency_ms; }},
           {"time_to_partition_s",
            [=](const auto& c) {
                const auto& trace = surv(c).step_giant_fraction;
                for (std::size_t i = 0; i < trace.size(); ++i)
                    if (trace[i] < 0.5) return offsets[i];
                return -1.0;
            }},
           {"recovery_headroom",
            [=](const auto& c) { return headroom(surv(c).step_giant_fraction); }}},
          {{"n_failed", [=](const auto& c) { return as_doubles(surv(c).step_n_failed); }},
           {"giant_component_fraction",
            [=](const auto& c) { return surv(c).step_giant_fraction; }},
           {"pair_reachable_fraction",
            [=](const auto& c) { return surv(c).step_pair_reachable_fraction; }}}}},
        {"traffic",
         {{{"offered_gbps_mean", [=](const auto& c) { return traf(c).metrics.offered_gbps_mean; }},
           {"delivered_gbps_mean",
            [=](const auto& c) { return traf(c).metrics.delivered_gbps_mean; }},
           {"delivered_fraction",
            [=](const auto& c) { return traf(c).metrics.delivered_fraction; }},
           {"mean_path_latency_ms",
            [=](const auto& c) { return traf(c).metrics.mean_path_latency_ms; }},
           {"p95_link_utilization",
            [=](const auto& c) { return traf(c).metrics.p95_link_utilization; }},
           {"congested_link_fraction",
            [=](const auto& c) { return traf(c).metrics.congested_link_fraction; }},
           {"min_step_delivered_fraction",
            [=](const auto& c) { return min_of(traf(c).step_delivered_fraction); }},
           {"recovery_headroom",
            [=](const auto& c) { return headroom(traf(c).step_delivered_fraction); }}},
          {{"offered_gbps", [=](const auto& c) { return traf(c).step_offered_gbps; }},
           {"delivered_fraction", [=](const auto& c) { return traf(c).step_delivered_fraction; }},
           {"p95_utilization", [=](const auto& c) { return traf(c).step_p95_utilization; }}}}},
        {"bulk", bulk_table},
        {"bulk_per_step", bulk_table},
        {"percolation",
         {{{"lambda2_mean", [=](const auto& c) { return perc(c).lambda2_mean; }},
           {"lambda2_min", [=](const auto& c) { return perc(c).lambda2_min; }},
           {"giant_fraction_mean", [=](const auto& c) { return perc(c).giant_fraction_mean; }},
           {"giant_fraction_min", [=](const auto& c) { return perc(c).giant_fraction_min; }},
           {"susceptibility_mean", [=](const auto& c) { return perc(c).susceptibility_mean; }},
           {"susceptibility_max", [=](const auto& c) { return perc(c).susceptibility_max; }},
           {"clustering_mean", [=](const auto& c) { return perc(c).clustering_mean; }},
           {"masking_threshold_random_loss",
            [=](const auto&) { return random_loss_threshold; }},
           {"masking_threshold_plane_attack",
            [=](const auto&) { return plane_attack_threshold; }},
           {"lambda2_unconverged_steps",
            [=](const auto& c) {
                return static_cast<double>(perc(c).lambda2_unconverged_steps);
            }}},
          {{"lambda2", [=](const auto& c) { return perc(c).step_lambda2; }},
           {"giant_component_fraction",
            [=](const auto& c) { return perc(c).step_giant_fraction; }},
           {"susceptibility", [=](const auto& c) { return perc(c).step_susceptibility; }},
           {"clustering", [=](const auto& c) { return perc(c).step_clustering; }},
           {"lambda2_unconverged",
            [=](const auto& c) { return as_doubles(perc(c).step_lambda2_unconverged); }}}}},
        {"serving",
         {{{"sessions_homed",
            [=](const auto& c) { return static_cast<double>(serv(c).metrics.sessions_homed); }},
           {"sessions_active_mean",
            [=](const auto& c) { return serv(c).metrics.sessions_active_mean; }},
           {"offered_gbps_mean", [=](const auto& c) { return serv(c).metrics.offered_gbps_mean; }},
           {"delivered_gbps_mean",
            [=](const auto& c) { return serv(c).metrics.delivered_gbps_mean; }},
           {"delivered_fraction",
            [=](const auto& c) { return serv(c).metrics.delivered_fraction; }},
           {"served_fraction_mean",
            [=](const auto& c) { return serv(c).metrics.served_fraction_mean; }},
           {"min_step_served_fraction",
            [=](const auto& c) { return serv(c).metrics.min_step_served_fraction; }},
           {"p50_session_rate_mbps",
            [=](const auto& c) { return serv(c).metrics.p50_session_rate_mbps; }},
           {"p99_session_rate_mbps",
            [=](const auto& c) { return serv(c).metrics.p99_session_rate_mbps; }},
           {"sessions_dropped_max",
            [=](const auto& c) {
                return static_cast<double>(serv(c).metrics.sessions_dropped_max);
            }},
           {"sessions_degraded_max",
            [=](const auto& c) {
                return static_cast<double>(serv(c).metrics.sessions_degraded_max);
            }},
           {"time_to_restore_s", [=](const auto& c) { return serv(c).metrics.time_to_restore_s; }},
           {"recovery_headroom",
            [=](const auto& c) { return headroom(serv(c).step_served_fraction); }}},
          {{"served_fraction", [=](const auto& c) { return serv(c).step_served_fraction; }},
           {"sessions_active", [=](const auto& c) { return serv(c).step_sessions_active; }},
           {"sessions_dropped", [=](const auto& c) { return serv(c).step_sessions_dropped; }},
           {"sessions_degraded", [=](const auto& c) { return serv(c).step_sessions_degraded; }},
           {"p99_session_rate_mbps",
            [=](const auto& c) { return serv(c).step_p99_session_rate_mbps; }},
           {"delivered_gbps", [=](const auto& c) { return serv(c).step_delivered_gbps; }}}}},
    };
}

bool same(double a, double b) { return a == b || (std::isnan(a) && std::isnan(b)); }

TEST(EngineColumns, EveryColumnReadsTheFieldItNames)
{
    const auto topo = test_walker();
    const evaluation_context context(topo, traffic::stations_from_cities(4),
                                     astro::instant::j2000(), short_grid());
    // Requests larger than a two-hour window can carry, so delivered and
    // offered volumes differ.
    const std::vector<tempo::bulk_transfer_request> requests{
        {0, 2, 5.0e5, 0.0, 7200.0}, {1, 3, 8.0e5, 0.0, 7200.0}};
    serve::serving_options serving;
    // Beams to spare but thin ones: most sessions are served, and a beam
    // over more than ten sessions degrades them.
    serving.n_sessions = 5000;
    serving.min_elevation_rad = deg2rad(10.0);
    serving.beams_per_satellite = 64;
    serving.beam_capacity_gbps = 0.05;
    serving.satellite_capacity_gbps = 100.0;
    serving.seed = 5;

    experiment_plan plan;
    plan.scenarios = scenarios();
    plan.engines = {std::make_shared<survivability_engine>(),
                    std::make_shared<traffic_engine>(test_demand()),
                    std::make_shared<bulk_engine>(requests),
                    std::make_shared<bulk_engine>(requests, tempo::bulk_route_options{},
                                                  /*per_step_baseline=*/true),
                    std::make_shared<percolation_engine>(percolation_options()),
                    std::make_shared<serving_engine>(test_population(), serving)};
    const auto campaign = run_campaign(plan, context);
    const int n_rows = static_cast<int>(campaign.rows.size());
    const std::vector<double> offsets(context.offsets().begin(), context.offsets().end());
    const auto tables = column_tables(topo, offsets);
    ASSERT_EQ(tables.size(), plan.engines.size());

    for (int e = 0; e < campaign.n_engines; ++e) {
        const auto& engine = *campaign.engines[static_cast<std::size_t>(e)];
        SCOPED_TRACE(engine.name());
        const auto& table = tables.at(engine.name());
        ASSERT_EQ(table.columns.size(), engine.columns().size());
        ASSERT_EQ(table.step_columns.size(), engine.step_columns().size());

        // expected[row][column] and step_expected[row][column][step].
        std::vector<std::vector<double>> expected(static_cast<std::size_t>(n_rows));
        std::vector<std::vector<std::vector<double>>> step_expected(
            static_cast<std::size_t>(n_rows));
        for (int row = 0; row < n_rows; ++row) {
            const auto& cell = campaign.cell(row, e);
            for (const auto& column : engine.columns()) {
                ASSERT_TRUE(table.columns.contains(column)) << column;
                const double want = table.columns.at(column)(cell);
                const double got = campaign.value(row, engine.name() + "." + column);
                EXPECT_TRUE(same(got, want))
                    << "row " << row << " " << column << ": " << got << " vs " << want;
                expected[static_cast<std::size_t>(row)].push_back(want);
            }
            const auto traces = engine.step_traces(cell);
            ASSERT_EQ(traces.size(), engine.step_columns().size());
            for (std::size_t k = 0; k < traces.size(); ++k) {
                const auto& column = engine.step_columns()[k];
                ASSERT_TRUE(table.step_columns.contains(column)) << column;
                auto want = table.step_columns.at(column)(cell);
                EXPECT_EQ(traces[k], want) << "row " << row << " step column " << column;
                step_expected[static_cast<std::size_t>(row)].push_back(std::move(want));
            }
        }

        // No two columns read equal in every row, so a swap of any two
        // names shows above.
        for (std::size_t a = 0; a < engine.columns().size(); ++a)
            for (std::size_t b = a + 1; b < engine.columns().size(); ++b) {
                bool differ = false;
                for (const auto& row : expected) differ = differ || !same(row[a], row[b]);
                EXPECT_TRUE(differ) << engine.columns()[a] << " and "
                                    << engine.columns()[b] << " read equal in every row";
            }
        for (std::size_t a = 0; a < engine.step_columns().size(); ++a)
            for (std::size_t b = a + 1; b < engine.step_columns().size(); ++b) {
                bool differ = false;
                for (const auto& row : step_expected) differ = differ || row[a] != row[b];
                EXPECT_TRUE(differ) << engine.step_columns()[a] << " and "
                                    << engine.step_columns()[b]
                                    << " trace equal in every row";
            }
    }
}

} // namespace
} // namespace ssplane::exp
