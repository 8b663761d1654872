// evaluation_context concurrency stress, written for the ThreadSanitizer
// leg: many threads hammer the timeline cache — racing first-lookups
// of the same scenario, distinct scenarios, and an arming thread for the
// adversary oracle — and the step geometry's first builds, while readers
// verify the cached payloads stay bit-identical to fresh ones. In a plain
// build these are determinism regressions; under TSan any unlocked cache
// path fails hard.
#include "exp/evaluation_context.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::exp {
namespace {

lsn::lsn_topology small_walker(int planes = 4, int sats = 4)
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
    grid.duration_s = 3600.0;
    grid.step_s = 900.0;
    grid.min_elevation_rad = deg2rad(25.0);
    return grid;
}

lsn::failure_scenario loss_scenario(std::uint64_t seed)
{
    lsn::failure_scenario scenario;
    scenario.mode = lsn::failure_mode::random_loss;
    scenario.loss_fraction = 0.25;
    scenario.seed = seed;
    return scenario;
}

TEST(EvaluationContextStress, RacingFirstLookupsAgreeOnOneEntry)
{
    const auto topo = small_walker(5, 5);
    const evaluation_context context(topo, {}, astro::instant::j2000(),
                                     short_grid());
    const auto scenario = loss_scenario(42);
    const auto expected = lsn::sample_failures(topo, scenario);

    constexpr int n_threads = 8;
    std::vector<const lsn::failure_timeline*> seen(n_threads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back([t, &context, &scenario, &seen] {
            seen[static_cast<std::size_t>(t)] = &context.timeline(scenario);
        });
    for (auto& t : threads) t.join();

    // Whoever won the race, every thread must end up on the single cached
    // entry and the payload must equal a fresh deterministic draw.
    EXPECT_EQ(context.timeline_cache_size(), 1u);
    for (const auto* timeline : seen) {
        ASSERT_NE(timeline, nullptr);
        EXPECT_EQ(timeline, seen[0]);
        EXPECT_EQ(timeline->masks, expected);
    }
}

TEST(EvaluationContextStress, MixedScenarioHammerKeepsPayloadsIdentical)
{
    const auto topo = small_walker(5, 5);
    const evaluation_context context(topo, {}, astro::instant::j2000(),
                                     short_grid());

    // 4 distinct scenarios x 6 threads x repeated lookups, each followed by
    // a lookup of the same draw with an unused knob changed (it must dedupe
    // onto the same entry), doubling the contention on the one mutex.
    constexpr int n_threads = 6;
    constexpr int rounds = 25;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back([t, rounds, &topo, &context, &mismatches] {
            for (int round = 0; round < rounds; ++round) {
                const auto scenario =
                    loss_scenario(static_cast<std::uint64_t>((t + round) % 4));
                const auto& timeline = context.timeline(scenario);
                if (timeline.masks != lsn::sample_failures(topo, scenario))
                    mismatches.fetch_add(1, std::memory_order_relaxed);
                if (!timeline.is_static() ||
                    timeline.n_satellites != context.builder().n_satellites())
                    mismatches.fetch_add(1, std::memory_order_relaxed);
                auto noisy = scenario;
                noisy.horizon_days = 1.0 + t;
                if (&context.timeline(noisy) != &timeline)
                    mismatches.fetch_add(1, std::memory_order_relaxed);
            }
        });
    for (auto& t : threads) t.join();

    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(context.timeline_cache_size(), 4u);
}

TEST(EvaluationContextStress, TimelineGeneratorsRaceToOneCachedSequence)
{
    const auto topo = small_walker(5, 5);
    const evaluation_context context(topo, {}, astro::instant::j2000(),
                                     short_grid());

    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 2;
    cascade.cascade_escalation = 0.3;
    cascade.seed = 7;

    constexpr int n_threads = 8;
    std::vector<const lsn::failure_timeline*> seen(n_threads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back([t, &context, &cascade, &seen] {
            seen[static_cast<std::size_t>(t)] = &context.timeline(cascade);
        });
    for (auto& t : threads) t.join();

    EXPECT_EQ(context.timeline_cache_size(), 1u);
    const auto expected = lsn::sample_failure_timeline(
        topo, cascade, context.offsets(), context.epoch());
    for (const auto* timeline : seen) {
        ASSERT_NE(timeline, nullptr);
        EXPECT_EQ(timeline, seen[0]);
        EXPECT_EQ(timeline->masks, expected.masks);
    }
}

/// Same links (endpoints and latency) in the same order and the same CSR
/// rows.
bool same_snapshot(const lsn::network_snapshot& a, const lsn::network_snapshot& b)
{
    if (a.n_satellites != b.n_satellites || a.n_ground != b.n_ground ||
        a.links.size() != b.links.size() || a.arc_begin != b.arc_begin ||
        a.arcs.size() != b.arcs.size())
        return false;
    for (std::size_t id = 0; id < a.links.size(); ++id)
        if (a.links[id].a != b.links[id].a || a.links[id].b != b.links[id].b ||
            a.links[id].latency_s != b.links[id].latency_s)
            return false;
    for (std::size_t k = 0; k < a.arcs.size(); ++k)
        if (a.arcs[k].to != b.arcs[k].to || a.arcs[k].link != b.arcs[k].link)
            return false;
    return true;
}

TEST(EvaluationContextStress, RacingFirstStepRequestsBuildEachStepOnce)
{
    // Released together, every thread asks the cold geometry for every
    // step in the same order, so they collide on each step's first build:
    // one thread builds it, the rest wait, and all get the snapshot a
    // fresh builder gives, with one build per step in all.
    const auto topo = small_walker(5, 5);
    const evaluation_context context(topo, lsn::default_ground_stations(),
                                     astro::instant::j2000(), short_grid());
    const auto& geometry = context.geometry();
    const int n_steps = context.n_steps();
    ASSERT_EQ(context.cache_stats().snapshot_builds, 0u);
    const int n_satellites = context.builder().n_satellites();
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(n_satellites), 0);
    for (std::size_t s = 0; s < mask.size(); s += 4) mask[s] = 1;

    constexpr int n_threads = 8;
    std::atomic<bool> go{false};
    std::vector<std::vector<lsn::network_snapshot>> seen(n_threads);
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back([t, n_steps, &go, &geometry, &mask, &seen] {
            auto& mine = seen[static_cast<std::size_t>(t)];
            while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
            for (int step = 0; step < n_steps; ++step)
                mine.push_back(geometry.snapshot(step, mask));
        });
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();

    EXPECT_EQ(context.cache_stats().snapshot_builds, static_cast<std::uint64_t>(n_steps));
    for (int step = 0; step < n_steps; ++step) {
        const auto fresh = context.builder().snapshot_from_positions(
            context.positions()[static_cast<std::size_t>(step)], mask);
        ASSERT_FALSE(fresh.links.empty());
        for (const auto& snapshots : seen)
            EXPECT_TRUE(same_snapshot(snapshots[static_cast<std::size_t>(step)], fresh))
                << "step " << step;
    }
}

TEST(EvaluationContextStress, ArmingRacesLookupWithoutTearing)
{
    // set_adversary_oracle shares the cache mutex with timeline lookups:
    // an arming thread racing static-mode lookups must neither tear the
    // oracle pointer nor trip TSan. (greedy_adversary lookups themselves
    // require arming strictly first, which stays a single-thread affair.)
    const auto topo = small_walker(4, 4);
    for (int round = 0; round < 10; ++round) {
        evaluation_context context(topo, lsn::default_ground_stations(),
                                   astro::instant::j2000(), short_grid());
        static const demand::population_model population;
        const demand::demand_model demand(population);
        std::thread armer(
            [&] { context.set_adversary_oracle(demand); });
        std::thread looker([&] {
            for (std::uint64_t seed = 0; seed < 8; ++seed)
                context.timeline(loss_scenario(seed));
        });
        armer.join();
        looker.join();
        EXPECT_EQ(context.timeline_cache_size(), 8u);
    }
}

} // namespace
} // namespace ssplane::exp
