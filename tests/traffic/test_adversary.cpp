#include "traffic/adversary.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ssplane::traffic {
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

TEST(Adversary, TimelineFollowsTheStrikeSchedule)
{
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const auto epoch = astro::instant::j2000();
    const lsn::snapshot_builder builder(topo, stations, epoch, deg2rad(25.0));
    const auto offsets = hourly_offsets(8);
    const auto positions = builder.positions_at_offsets(offsets);

    const auto timeline = generate_adversary_timeline(
        builder, offsets, positions, adversary_scenario(2), test_demand());
    lsn::validate(timeline);
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

TEST(Adversary, ZeroBudgetAndPastHorizonStrikesLeaveTheNetworkAlone)
{
    const auto topo = small_walker(4, 4);
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(4);
    const auto positions = builder.positions_at_offsets(offsets);

    const auto unarmed = generate_adversary_timeline(
        builder, offsets, positions, adversary_scenario(0), test_demand());
    EXPECT_EQ(unarmed.final_n_failed(), 0);

    // A first strike scheduled past the horizon never lands.
    const auto late = generate_adversary_timeline(
        builder, offsets, positions, adversary_scenario(2, 1, /*first=*/10),
        test_demand());
    EXPECT_EQ(late.final_n_failed(), 0);
}

TEST(Adversary, DeterministicAcrossThreadCountsAndRepeats)
{
    const auto topo = small_walker();
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(6);
    const auto positions = builder.positions_at_offsets(offsets);
    const auto scenario = adversary_scenario(2);

    std::vector<lsn::failure_timeline> runs;
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        runs.push_back(generate_adversary_timeline(builder, offsets, positions,
                                                   scenario, test_demand()));
        runs.push_back(generate_adversary_timeline(builder, offsets, positions,
                                                   scenario, test_demand()));
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
    const auto positions = builder.positions_at_offsets(offsets);
    const int budget = 2;

    const auto greedy = generate_adversary_timeline(
        builder, offsets, positions, adversary_scenario(budget, 1, /*first=*/0),
        test_demand());
    const auto greedy_sweep = run_traffic_sweep_timeline(
        builder, offsets, positions, greedy, test_demand());

    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        lsn::failure_scenario random_attack;
        random_attack.mode = lsn::failure_mode::plane_attack;
        random_attack.planes_attacked = budget;
        random_attack.seed = seed;
        const auto sweep = run_traffic_sweep_timeline(
            builder, offsets, positions,
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
    const auto positions = builder.positions_at_offsets(offsets);

    auto scenario = adversary_scenario(1, 1, 0);
    scenario.adversary_eval_stride = 3;
    const auto strided = generate_adversary_timeline(builder, offsets, positions,
                                                     scenario, test_demand());
    EXPECT_EQ(strided.final_n_failed(), 6);
}

TEST(Adversary, RejectsNonAdversaryScenarios)
{
    const auto topo = small_walker(4, 4);
    const auto stations = stations_from_cities(4);
    const lsn::snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                        deg2rad(25.0));
    const auto offsets = hourly_offsets(2);
    const auto positions = builder.positions_at_offsets(offsets);

    lsn::failure_scenario loss;
    loss.mode = lsn::failure_mode::random_loss;
    loss.loss_fraction = 0.2;
    EXPECT_THROW(generate_adversary_timeline(builder, offsets, positions, loss,
                                             test_demand()),
                 contract_violation);
}

} // namespace
} // namespace ssplane::traffic
