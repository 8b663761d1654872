// Cross-layer instrumentation tests: counter determinism across thread
// counts, subsystem span coverage (the serving batch's discovery and
// packing phases included), and the campaign cache-telemetry summary —
// all on a real mixed campaign.
#include "exp/campaign.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/angles.h"
#include "util/parallel.h"

namespace ssplane::exp {
namespace {

const demand::demand_model& test_demand()
{
    static const demand::population_model population;
    static const demand::demand_model model(population);
    return model;
}

lsn::lsn_topology small_walker()
{
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = 4;
    params.sats_per_plane = 6;
    params.phasing_f = 1;
    return lsn::build_walker_grid_topology(params);
}

lsn::scenario_sweep_options short_grid()
{
    lsn::scenario_sweep_options grid;
    grid.duration_s = 3600.0;
    grid.step_s = 1800.0;
    grid.min_elevation_rad = deg2rad(25.0);
    return grid;
}

/// Mixed plan: a static mode, a duplicate-by-dedup baseline pair, and a
/// time-correlated mode, judged by all three engine families.
experiment_plan mixed_plan()
{
    experiment_plan plan;
    plan.scenarios.push_back({"baseline", {}});

    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = 7;
    plan.scenarios.push_back({"random_25", loss});

    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 2;
    cascade.seed = 7;
    plan.scenarios.push_back({"cascade", cascade});

    std::vector<tempo::bulk_transfer_request> requests{
        {0, 2, 500.0, 0.0, 3600.0}, {1, 3, 800.0, 0.0, 3600.0}};
    plan.engines = {std::make_shared<survivability_engine>(),
                    std::make_shared<traffic_engine>(test_demand()),
                    std::make_shared<bulk_engine>(std::move(requests))};
    return plan;
}

/// Restores thread count, tracing gate and trace buffers on scope exit.
struct obs_sandbox {
    ~obs_sandbox()
    {
        set_thread_count(0);
        obs::set_tracing_enabled(false);
        obs::trace_reset();
    }
};

#ifndef SSPLANE_OBS_DISABLED

TEST(ObsCampaign, DeterministicCountersAreBitIdenticalAcrossThreadCounts)
{
    const obs_sandbox sandbox;
    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    const auto plan = mixed_plan();

    std::vector<std::vector<obs::metric_sample>> snapshots;
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        obs::registry::instance().reset();
        const evaluation_context context(topo, stations, astro::instant::j2000(),
                                         short_grid());
        (void)run_campaign(plan, context);
        snapshots.push_back(obs::deterministic_snapshot());
    }

    ASSERT_EQ(snapshots.size(), 3u);
    // Bit-identical: same names, same values, in the same (sorted) order.
    EXPECT_EQ(snapshots[0], snapshots[1]);
    EXPECT_EQ(snapshots[0], snapshots[2]);

    // And the campaign actually exercised every layer's counters.
    const auto value_of = [&](const std::string& name) -> double {
        for (const auto& s : snapshots[0])
            if (s.name == name) return s.value;
        return 0.0;
    };
    EXPECT_GT(value_of("lsn.dijkstra.runs"), 0.0);
    EXPECT_GT(value_of("lsn.snapshot.builds"), 0.0);
    EXPECT_GT(value_of("exp.timeline_cache.miss"), 0.0);
    EXPECT_GT(value_of("exp.campaign.cells"), 0.0);
    EXPECT_GT(value_of("exp.snapshot.rebuilds"), 0.0);
    EXPECT_GT(value_of("pool.parallel_regions"), 0.0);
    EXPECT_GT(value_of("traffic.assign.calls"), 0.0);
    EXPECT_GT(value_of("tempo.graph.builds"), 0.0);
}

TEST(ObsCampaign, TraceCoversPoolExpLsnTrafficAndTempoSubsystems)
{
    const obs_sandbox sandbox;
    obs::trace_reset();
    obs::set_tracing_enabled(true);
    set_thread_count(2);

    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());
    (void)run_campaign(mixed_plan(), context);
    obs::set_tracing_enabled(false);

    const auto spans = obs::trace_snapshot();
    const auto has_span = [&](const std::string& name) {
        for (const auto& s : spans)
            if (s.name == name) return true;
        return false;
    };
    // The acceptance bar: spans from >= 4 subsystems on one campaign.
    EXPECT_TRUE(has_span("campaign.run"));
    EXPECT_TRUE(has_span("campaign.prefetch_timelines"));
    EXPECT_TRUE(has_span("campaign.cell.survivability"));
    EXPECT_TRUE(has_span("campaign.cell.traffic"));
    EXPECT_TRUE(has_span("campaign.cell.bulk"));
    EXPECT_TRUE(has_span("exp.context.build"));
    EXPECT_TRUE(has_span("lsn.propagate"));
    EXPECT_TRUE(has_span("lsn.scenario_sweep"));
    EXPECT_TRUE(has_span("lsn.snapshot.build"));
    EXPECT_TRUE(has_span("traffic.assign"));
    EXPECT_TRUE(has_span("traffic.sweep"));
    EXPECT_TRUE(has_span("tempo.graph.build"));
    EXPECT_TRUE(has_span("tempo.bulk.route"));
    EXPECT_TRUE(has_span("pool.task"));

    // The Chrome export of a real campaign stays well-formed and balanced.
    std::ostringstream out;
    obs::write_chrome_trace(out);
    const std::string json = out.str();
    std::size_t begins = 0;
    std::size_t ends = 0;
    for (std::size_t at = json.find("\"ph\":\""); at != std::string::npos;
         at = json.find("\"ph\":\"", at + 6)) {
        if (json[at + 6] == 'B') ++begins;
        if (json[at + 6] == 'E') ++ends;
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
}

TEST(ObsCampaign, SpectralCountersAndSpansCoverThePercolationEngine)
{
    const obs_sandbox sandbox;
    const auto topo = small_walker();
    const evaluation_context context(topo, {}, astro::instant::j2000(),
                                     short_grid());

    experiment_plan plan;
    plan.scenarios.push_back({"baseline", {}});
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = 7;
    plan.scenarios.push_back({"random_25", loss});
    percolation_engine_options percolation;
    percolation.compute_masking_thresholds = true;
    plan.engines = {std::make_shared<percolation_engine>(percolation)};

    obs::registry::instance().reset();
    obs::trace_reset();
    obs::set_tracing_enabled(true);
    (void)run_campaign(plan, context);
    obs::set_tracing_enabled(false);

    const auto counters = obs::deterministic_snapshot();
    const auto value_of = [&](const std::string& name) -> double {
        for (const auto& s : counters)
            if (s.name == name) return s.value;
        return 0.0;
    };
    EXPECT_GT(value_of("spectral.lanczos.solves"), 0.0);
    EXPECT_GT(value_of("spectral.lanczos.iterations"), 0.0);
    EXPECT_GT(value_of("spectral.unionfind.unions"), 0.0);

    const auto spans = obs::trace_snapshot();
    const auto has_span = [&](const std::string& name) {
        for (const auto& s : spans)
            if (s.name == name) return true;
        return false;
    };
    EXPECT_TRUE(has_span("campaign.cell.percolation"));
    EXPECT_TRUE(has_span("spectral.lanczos"));
    EXPECT_TRUE(has_span("spectral.percolate"));
}

TEST(ObsCampaign, ServingBatchSpansSplitDiscoveryFromPacking)
{
    const obs_sandbox sandbox;
    const auto topo = small_walker();
    const evaluation_context context(topo, {}, astro::instant::j2000(),
                                     short_grid());
    static const demand::population_model population;
    serve::serving_options serving;
    serving.n_sessions = 5000;
    serving.seed = 3;

    experiment_plan plan;
    plan.scenarios.push_back({"baseline", {}});
    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = 7;
    plan.scenarios.push_back({"random_25", loss});
    plan.engines = {std::make_shared<survivability_engine>(),
                    std::make_shared<serving_engine>(population, serving)};

    obs::trace_reset();
    obs::set_tracing_enabled(true);
    set_thread_count(2);
    (void)run_campaign(plan, context);
    obs::set_tracing_enabled(false);

    const auto spans = obs::trace_snapshot();
    const auto count = [&](const std::string& name) {
        std::size_t n = 0;
        for (const auto& s : spans) n += s.name == name ? 1 : 0;
        return n;
    };
    // Serving runs as one top-level batch, not as per-cell fan-out; the
    // batch discovers once per step and packs once per (row, step).
    ASSERT_EQ(count("campaign.batch.serving"), 1u);
    EXPECT_EQ(count("campaign.cell.serving"), 0u);
    EXPECT_EQ(count("serve.sweep"), 1u);
    EXPECT_EQ(count("serve.discover"), static_cast<std::size_t>(context.n_steps()));
    EXPECT_EQ(count("serve.pack"), 2u * static_cast<std::size_t>(context.n_steps()));
    EXPECT_EQ(count("serve.assign"), 0u);
    // An engine that declines the batch hook fans out and gets no batch span.
    EXPECT_EQ(count("campaign.batch.survivability"), 0u);
    EXPECT_EQ(count("campaign.cell.survivability"), 2u);

    // Every discovery and packing phase lies inside the batch span.
    const obs::trace_span* batch = nullptr;
    for (const auto& s : spans)
        if (s.name == "campaign.batch.serving") batch = &s;
    for (const auto& s : spans) {
        if (s.name != "serve.discover" && s.name != "serve.pack") continue;
        EXPECT_GE(s.begin_ns, batch->begin_ns) << s.name;
        EXPECT_LE(s.end_ns, batch->end_ns) << s.name;
    }
}

#endif // SSPLANE_OBS_DISABLED

TEST(ObsCampaign, CampaignReportsCacheStatisticsAndCsvCarriesThem)
{
    const obs_sandbox sandbox;
    const auto topo = small_walker();
    const auto stations = traffic::stations_from_cities(4);
    const evaluation_context context(topo, stations, astro::instant::j2000(),
                                     short_grid());
    const auto plan = mixed_plan();

    const auto first = run_campaign(plan, context);
    // 3 scenarios x 3 engines: the prefetch misses once per distinct
    // timeline, the dedup resolves the rest as hits of this run.
    EXPECT_EQ(first.cache.timeline_misses, 3u);
    // The cold context builds each step's links once, whichever cell asks
    // first; counted by the context itself, so obs-off builds report it too.
    EXPECT_EQ(first.cache.snapshot_builds, static_cast<std::uint64_t>(context.n_steps()));

    // Re-running on the same context is all hits — and the result reports
    // THIS run's delta, not the context's cumulative totals.
    const auto second = run_campaign(plan, context);
    EXPECT_EQ(second.cache.timeline_misses, 0u);
    EXPECT_EQ(second.cache.timeline_hits, 3u);
    EXPECT_EQ(second.cache.timeline_hit_rate(), 1.0);
    EXPECT_EQ(second.cache.snapshot_builds, 0u);

    std::ostringstream csv;
    second.write_csv(csv);
    const std::string text = csv.str();
    EXPECT_NE(text.find("ctx.timeline_cache_hit_rate"), std::string::npos);
    EXPECT_NE(text.find("ctx.snapshot_builds"), std::string::npos);
    // The summary columns repeat on every data row.
    std::size_t lines = 0;
    for (const char c : text)
        if (c == '\n') ++lines;
    EXPECT_EQ(lines, second.rows.size() + 1);
}

} // namespace
} // namespace ssplane::exp
