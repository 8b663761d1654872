#include "traffic/adversary.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../lsn/scenario_fields.h"
#include "equivalence_fixtures.h"
#include "obs/metrics.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ssplane::traffic {
namespace {

lsn::lsn_topology small_walker(int planes = 6, int sats = 6)
{
    constellation::walker_parameters params;
    params.altitude_m = 550.0e3;
    params.inclination_rad = deg2rad(53.0);
    params.n_planes = planes;
    params.sats_per_plane = sats;
    params.phasing_f = 1;
    return lsn::build_walker_grid_topology(params);
}

std::vector<double> hourly_offsets(int n_steps)
{
    std::vector<double> offsets(static_cast<std::size_t>(n_steps));
    for (int i = 0; i < n_steps; ++i) offsets[static_cast<std::size_t>(i)] = i * 3600.0;
    return offsets;
}

lsn::failure_scenario adversary_scenario(int budget, int interval = 2,
                                         int first = 1)
{
    lsn::failure_scenario s;
    s.mode = lsn::failure_mode::greedy_adversary;
    s.adversary_budget = budget;
    s.adversary_strike_interval_steps = interval;
    s.adversary_first_strike_step = first;
    return s;
}

/// The exhaustive greedy search the pruned generator must reproduce: every
/// surviving plane trial-killed and swept with `run_traffic_sweep_timeline`
/// on the planning grid, the lowest plane index winning ties.
lsn::failure_timeline exhaustive_adversary_timeline(const lsn::sweep_geometry& geometry,
                                                    const lsn::failure_scenario& scenario,
                                                    const traffic_sweep_options& options)
{
    const auto& topology = geometry.builder().topology();
    const int n = geometry.builder().n_satellites();
    const int n_steps = geometry.n_steps();
    const int n_planes = lsn::plane_count(topology);

    lsn::failure_timeline timeline;
    timeline.n_satellites = n;
    timeline.n_steps = n_steps;
    timeline.masks.assign(
        static_cast<std::size_t>(n_steps) * static_cast<std::size_t>(n), 0);

    // The planning grid as a geometry of its own: propagation is per
    // offset, so its positions equal the sweep's on those steps.
    std::vector<double> eval_offsets;
    for (int i = 0; i < n_steps; i += scenario.adversary_eval_stride)
        eval_offsets.push_back(geometry.offsets()[static_cast<std::size_t>(i)]);
    const lsn::sweep_geometry eval_geometry(geometry.builder(), eval_offsets);

    std::vector<std::uint8_t> current(static_cast<std::size_t>(n), 0);
    std::vector<std::uint8_t> plane_dead(static_cast<std::size_t>(n_planes), 0);
    const auto kill_plane = [&](int p, std::vector<std::uint8_t>& mask) {
        for (int s = 0; s < n; ++s)
            if (topology.satellites[static_cast<std::size_t>(s)].plane == p)
                mask[static_cast<std::size_t>(s)] = 1;
    };
    const auto row = [&](int i) {
        return timeline.masks.data() +
               static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    };

    int fill_from = 0;
    for (int strike = 0; strike < scenario.adversary_budget; ++strike) {
        const int strike_step = scenario.adversary_first_strike_step +
                                strike * scenario.adversary_strike_interval_steps;
        if (strike_step >= n_steps) break;
        int best_plane = -1;
        double best_delivered = std::numeric_limits<double>::infinity();
        for (int p = 0; p < n_planes; ++p) {
            if (plane_dead[static_cast<std::size_t>(p)]) continue;
            auto trial = current;
            kill_plane(p, trial);
            const auto sweep = run_traffic_sweep_timeline(
                eval_geometry, lsn::failure_timeline::from_static_mask(std::move(trial)),
                test_demand(), options);
            if (sweep.metrics.delivered_gbps_mean < best_delivered) {
                best_delivered = sweep.metrics.delivered_gbps_mean;
                best_plane = p;
            }
        }
        if (best_plane < 0) break;
        for (; fill_from < strike_step; ++fill_from)
            std::copy_n(current.data(), n, row(fill_from));
        plane_dead[static_cast<std::size_t>(best_plane)] = 1;
        kill_plane(best_plane, current);
    }
    for (; fill_from < n_steps; ++fill_from)
        std::copy_n(current.data(), n, row(fill_from));
    return timeline;
}

/// Runs the pruned generator on `fixture` over budgets 1-3, planning
/// strides 1-2, an unsaturated and a link-saturating demand, and pool sizes
/// 1, 2 and 4, and checks every timeline against the exhaustive search.
void expect_pruned_search_matches_exhaustive(const equivalence_fixture& fixture)
{
    SCOPED_TRACE(fixture.name);
    const lsn::sweep_geometry geometry(
        lsn::snapshot_builder(fixture.topology, stations_from_cities(8),
                              astro::instant::j2000(), deg2rad(10.0)),
        hourly_offsets(5));
    for (const double demand_gbps : {5.0, 2000.0}) {
        traffic_sweep_options options;
        options.matrix.total_demand_gbps = demand_gbps;
        for (const int budget : {1, 2, 3}) {
            for (const int stride : {1, 2}) {
                auto scenario = adversary_scenario(budget, 1, 0);
                scenario.adversary_eval_stride = stride;
                SCOPED_TRACE(::testing::Message()
                             << "demand " << demand_gbps << " Gbps, budget " << budget
                             << ", stride " << stride);
                const auto reference =
                    exhaustive_adversary_timeline(geometry, scenario, options);
                EXPECT_EQ(reference.final_n_failed(),
                          budget * fixture.topology.satellites.size() /
                              static_cast<std::size_t>(lsn::plane_count(fixture.topology)));
                for (const unsigned threads : {1u, 2u, 4u}) {
                    set_thread_count(threads);
                    const auto pruned = generate_adversary_timeline(
                        geometry, scenario, test_demand(), options);
                    set_thread_count(0);
                    EXPECT_EQ(pruned.n_steps, reference.n_steps);
                    EXPECT_EQ(pruned.masks, reference.masks) << threads << " threads";
                }
            }
        }
    }
}

#ifndef SSPLANE_OBS_DISABLED
std::uint64_t counter_value(const char* name)
{
    return obs::registry::instance().get_counter(name).value();
}
#endif

TEST(Adversary, TimelineFollowsTheStrikeSchedule)
{
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const auto epoch = astro::instant::j2000();
    const lsn::snapshot_builder builder(topo, stations, epoch, deg2rad(25.0));
    const auto offsets = hourly_offsets(8);
    const lsn::sweep_geometry geometry(builder, offsets);

    const auto timeline =
        generate_adversary_timeline(geometry, adversary_scenario(2), test_demand());
    lsn::validate(timeline, 36, 8);
    EXPECT_EQ(timeline.n_satellites, 36);
    EXPECT_EQ(timeline.n_steps, 8);
    // Strikes at steps 1 and 3, six satellites (one plane) each; rows
    // before the first strike are clean.
    EXPECT_EQ(timeline.n_failed_at(0), 0);
    EXPECT_EQ(timeline.n_failed_at(1), 6);
    EXPECT_EQ(timeline.n_failed_at(2), 6);
    EXPECT_EQ(timeline.n_failed_at(3), 12);
    EXPECT_EQ(timeline.final_n_failed(), 12);
    // Each strike kills one whole plane: the failed set is a union of
    // complete planes.
    const auto final_mask = timeline.step(7);
    for (int p = 0; p < 6; ++p) {
        int dead_in_plane = 0;
        for (int s = 0; s < 36; ++s)
            if (topo.satellites[static_cast<std::size_t>(s)].plane == p &&
                final_mask[static_cast<std::size_t>(s)] != 0)
                ++dead_in_plane;
        EXPECT_TRUE(dead_in_plane == 0 || dead_in_plane == 6);
    }
}

TEST(Adversary, CanonicalScenarioIsTheWholeInputOfTheSearch)
{
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(8);
    const lsn::sweep_geometry geometry(builder, offsets);
    const auto draw = [&](const lsn::failure_scenario& scenario) {
        return generate_adversary_timeline(geometry, scenario, test_demand());
    };

    // The search draws no random numbers: seed is not read.
    auto scenario = adversary_scenario(2);
    scenario.adversary_eval_stride = 2;
    EXPECT_EQ(draw(scenario).final_n_failed(), 12);
    lsn::testing::expect_canonical_is_whole_input(
        scenario,
        {"adversary_budget", "adversary_strike_interval_steps",
         "adversary_first_strike_step", "adversary_eval_stride"},
        draw);
}

TEST(Adversary, ZeroBudgetAndPastHorizonStrikesLeaveTheNetworkAlone)
{
    const auto topo = small_walker(4, 4);
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(4);
    const lsn::sweep_geometry geometry(builder, offsets);

    const auto unarmed =
        generate_adversary_timeline(geometry, adversary_scenario(0), test_demand());
    EXPECT_EQ(unarmed.final_n_failed(), 0);

    // A first strike scheduled past the horizon never lands.
    const auto late = generate_adversary_timeline(
        geometry, adversary_scenario(2, 1, /*first=*/10), test_demand());
    EXPECT_EQ(late.final_n_failed(), 0);
}

TEST(Adversary, DeterministicAcrossThreadCountsAndRepeats)
{
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(6);
    const lsn::sweep_geometry geometry(builder, offsets);
    const auto scenario = adversary_scenario(2);

    std::vector<lsn::failure_timeline> runs;
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        runs.push_back(generate_adversary_timeline(geometry, scenario, test_demand()));
        runs.push_back(generate_adversary_timeline(geometry, scenario, test_demand()));
    }
    set_thread_count(0);
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].n_steps, runs[0].n_steps);
        EXPECT_EQ(runs[i].masks, runs[0].masks);
    }
}

TEST(Adversary, GreedyDamageAtLeastMatchesRandomPlaneAttacks)
{
    // The regression that keeps the adversary an adversary: at equal budget
    // (killed at step 0, like a static plane attack), the greedy choice
    // never leaves more delivered traffic than random plane draws.
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(4);
    const lsn::sweep_geometry geometry(builder, offsets);
    const int budget = 2;

    const auto greedy = generate_adversary_timeline(
        geometry, adversary_scenario(budget, 1, /*first=*/0), test_demand());
    const auto greedy_sweep = run_traffic_sweep_timeline(geometry, greedy, test_demand());

    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        lsn::failure_scenario random_attack;
        random_attack.mode = lsn::failure_mode::plane_attack;
        random_attack.planes_attacked = budget;
        random_attack.seed = seed;
        const auto sweep = run_traffic_sweep_timeline(
            geometry,
            lsn::sample_failure_timeline(topo, random_attack, offsets, builder.epoch()),
            test_demand());
        EXPECT_LE(greedy_sweep.metrics.delivered_gbps_mean,
                  sweep.metrics.delivered_gbps_mean + 1e-12)
            << "random plane attack (seed " << seed
            << ") out-damaged the greedy adversary";
    }
}

TEST(Adversary, StridedOracleStillStrikes)
{
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(6);
    const lsn::sweep_geometry geometry(builder, offsets);

    auto scenario = adversary_scenario(1, 1, 0);
    scenario.adversary_eval_stride = 3;
    const auto strided = generate_adversary_timeline(geometry, scenario, test_demand());
    EXPECT_EQ(strided.final_n_failed(), 6);
}

TEST(Adversary, PrunedSearchMatchesExhaustiveOnWalkerGrid)
{
    obs::registry::instance().reset();
    expect_pruned_search_matches_exhaustive(equivalence_fixtures()[0]);
#ifndef SSPLANE_OBS_DISABLED
    // The suite is not vacuous: the fixture really skips trials.
    EXPECT_GT(counter_value("traffic.adversary.pruned"), 0u);
#endif
}

TEST(Adversary, PrunedSearchMatchesExhaustiveOnCappedWalker)
{
    expect_pruned_search_matches_exhaustive(equivalence_fixtures()[1]);
}

TEST(Adversary, PrunedSearchMatchesExhaustiveOnSsDesign)
{
    expect_pruned_search_matches_exhaustive(equivalence_fixtures()[2]);
}

TEST(Adversary, FailingAPlaneOffEveryQueriedPathLeavesTheAssignmentAlone)
{
    // The pruning rule's premise, checked per (plane, step) rather than
    // through the argmin: when no satellite of a plane lay on a path the
    // base assignment queried, zero-flow paths included, the assignment
    // with that plane failed is the base one bit for bit.
    int checked = 0;
    for (const auto& fixture : equivalence_fixtures()) {
        SCOPED_TRACE(fixture.name);
        const auto& topo = fixture.topology;
        const lsn::snapshot_builder builder(topo, stations_from_cities(8),
                                            astro::instant::j2000(), deg2rad(10.0));
        const auto offsets = hourly_offsets(5);
        const auto positions = builder.positions_at_offsets(offsets);
        const int n = builder.n_satellites();
        for (const double demand_gbps : {5.0, 2000.0}) {
            traffic_sweep_options options;
            options.matrix.total_demand_gbps = demand_gbps;
            for (std::size_t i = 0; i < offsets.size(); ++i) {
                const auto matrix = build_traffic_matrix(
                    test_demand(), builder.stations(),
                    builder.epoch().plus_seconds(offsets[i]), options.matrix);
                const auto base = assign_flows(builder.snapshot_from_positions(positions[i]),
                                               matrix, options.capacity);
                for (int p = 0; p < lsn::plane_count(topo); ++p) {
                    std::vector<std::uint8_t> mask(static_cast<std::size_t>(n), 0);
                    for (int s = 0; s < n; ++s)
                        if (topo.satellites[static_cast<std::size_t>(s)].plane == p)
                            mask[static_cast<std::size_t>(s)] = 1;
                    bool on_path = false;
                    for (const int v : base.routes.nodes)
                        on_path |= v < n && mask[static_cast<std::size_t>(v)] != 0;
                    if (on_path) continue;
                    const auto trial = assign_flows(
                        builder.snapshot_from_positions(positions[i], mask), matrix,
                        options.capacity);
                    EXPECT_EQ(trial.delivered_gbps, base.delivered_gbps)
                        << "plane " << p << ", step " << i << ", " << demand_gbps << " Gbps";
                    EXPECT_EQ(trial.latency_flow_sum_gbps_s, base.latency_flow_sum_gbps_s);
                    EXPECT_EQ(trial.pair_delivered_gbps, base.pair_delivered_gbps);
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(AdversaryWork, TrialsAndSettledNodesStayWithinMeasuredCeilings)
{
#if defined(SSPLANE_OBS_DISABLED)
    GTEST_SKIP() << "work counters compile away under -DSSPLANE_OBS=OFF";
#else
    // A fixed fixture whose work counters repeat exactly for any pool
    // size: a change that widens the search again, lets route trees walk
    // past the gateways still owed demand, or stops trials replaying their
    // base's trees or cut-off pairs retiring trips these ceilings, the
    // values measured when the pruned search (107 of 114 (plane, step)
    // pairs assigned) and the replay landed (66,820 nodes settled, 119,562
    // before it). The component router settles as many components: this
    // Walker shell has no zero-latency link, so every node is its own.
    const auto topo = small_walker(10, 10);
    const lsn::snapshot_builder builder(topo, stations_from_cities(8),
                                        astro::instant::j2000(), deg2rad(10.0));
    const auto offsets = hourly_offsets(6);
    const lsn::sweep_geometry geometry(builder, offsets);
    traffic_sweep_options options;
    options.matrix.total_demand_gbps = 2000.0;

    obs::registry::instance().reset();
    generate_adversary_timeline(geometry, adversary_scenario(2, 2, 0), test_demand(),
                                options);
    EXPECT_LE(counter_value("traffic.adversary.trials"), 107u);
    EXPECT_LE(counter_value("lsn.dijkstra.settled"), 66820u);
    EXPECT_GT(counter_value("traffic.adversary.pruned"), 0u);
    EXPECT_GT(counter_value("traffic.adversary.reused_trees"), 0u);
    EXPECT_GT(counter_value("traffic.assign.retired_pairs"), 0u);
#endif
}

TEST(AdversaryWork, CountsTheStepsTheStrideLeavesUnplanned)
{
#if defined(SSPLANE_OBS_DISABLED)
    GTEST_SKIP() << "work counters compile away under -DSSPLANE_OBS=OFF";
#else
    // Five hourly steps planned on every second one (steps 0, 2 and 4)
    // leave two unplanned; stride 1 plans them all.
    const auto topo = small_walker(4, 4);
    const lsn::sweep_geometry geometry(
        lsn::snapshot_builder(topo, stations_from_cities(4), astro::instant::j2000(),
                              deg2rad(25.0)),
        hourly_offsets(5));
    auto scenario = adversary_scenario(1, 1, 0);
    obs::registry::instance().reset();
    scenario.adversary_eval_stride = 2;
    generate_adversary_timeline(geometry, scenario, test_demand());
    EXPECT_EQ(counter_value("traffic.adversary.unplanned_steps"), 2u);
    scenario.adversary_eval_stride = 1;
    generate_adversary_timeline(geometry, scenario, test_demand());
    EXPECT_EQ(counter_value("traffic.adversary.unplanned_steps"), 2u);
#endif
}

TEST(Adversary, RejectsNonFiniteMatrixOptionsBeforeFanOut)
{
    const auto topo = small_walker(4, 4);
    const lsn::snapshot_builder builder(topo, stations_from_cities(4),
                                        astro::instant::j2000(), deg2rad(25.0));
    const auto offsets = hourly_offsets(2);
    const lsn::sweep_geometry geometry(builder, offsets);
    const auto scenario = adversary_scenario(1);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        traffic_sweep_options options;
        options.matrix.total_demand_gbps = bad;
        EXPECT_THROW(generate_adversary_timeline(geometry, scenario, test_demand(), options),
                     contract_violation)
            << bad;
    }
}

TEST(Adversary, RejectsNonAdversaryScenarios)
{
    const auto topo = small_walker(4, 4);
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(2);
    const lsn::sweep_geometry geometry(builder, offsets);

    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.2;
    EXPECT_THROW(generate_adversary_timeline(geometry, loss, test_demand()),
                 contract_violation);
}

} // namespace
} // namespace ssplane::traffic
