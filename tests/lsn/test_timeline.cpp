#include "lsn/timeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lsn/failures.h"
#include "lsn/scenario.h"
#include "radiation/solar_cycle.h"
#include "scenario_fields.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ssplane::lsn {
namespace {

constellation::walker_parameters small_grid(int planes = 6, int sats = 6)
{
    constellation::walker_parameters p;
    p.altitude_m = 550.0e3;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = planes;
    p.sats_per_plane = sats;
    p.phasing_f = 1;
    return p;
}

std::vector<int> failed_indices(std::span<const std::uint8_t> mask)
{
    std::vector<int> failed;
    for (std::size_t i = 0; i < mask.size(); ++i)
        if (mask[i] != 0) failed.push_back(static_cast<int>(i));
    return failed;
}

// --- timeline semantics -----------------------------------------------------

TEST(Timeline, ZeroRowTimelineHasNoFailuresAtAnyStep)
{
    const auto timeline = failure_timeline::from_static_mask({});
    EXPECT_TRUE(timeline.is_static());
    EXPECT_EQ(timeline.n_steps, 0);
    EXPECT_TRUE(timeline.step(0).empty());
    EXPECT_TRUE(timeline.step(17).empty());
    EXPECT_EQ(timeline.n_failed_at(3), 0);
    EXPECT_EQ(timeline.final_n_failed(), 0);
}

TEST(Timeline, StaticTimelineServesRowZeroForEveryStep)
{
    const std::vector<std::uint8_t> mask{0, 1, 0, 1};
    const auto timeline = failure_timeline::from_static_mask(mask);
    EXPECT_TRUE(timeline.is_static());
    EXPECT_EQ(timeline.n_satellites, 4);
    EXPECT_EQ(timeline.n_steps, 1);
    for (const int i : {0, 1, 5, 100}) {
        const auto step = timeline.step(i);
        ASSERT_EQ(step.size(), mask.size());
        EXPECT_TRUE(std::equal(step.begin(), step.end(), mask.begin()));
        EXPECT_EQ(timeline.n_failed_at(i), 2);
    }
    EXPECT_EQ(timeline.final_n_failed(), 2);
}

TEST(Timeline, MultiRowTimelineHasNoRowPastItsEnd)
{
    failure_timeline timeline;
    timeline.n_satellites = 2;
    timeline.n_steps = 3;
    timeline.masks = {0, 0, /**/ 1, 0, /**/ 1, 1};
    validate(timeline, 2, 3);
    EXPECT_FALSE(timeline.is_static());
    EXPECT_EQ(timeline.n_failed_at(0), 0);
    EXPECT_EQ(timeline.n_failed_at(1), 1);
    EXPECT_EQ(timeline.n_failed_at(2), 2);
    EXPECT_EQ(timeline.final_n_failed(), 2);
    // One row per step and no more: a step past the end, or before the
    // start, is never read as some other step's row.
    EXPECT_THROW(timeline.step(3), contract_violation);
    EXPECT_THROW(timeline.step(-1), contract_violation);
    EXPECT_THROW(timeline.n_failed_at(9), contract_violation);
}

TEST(Timeline, FitsAGridWithZeroRowsOneRowOrOneRowPerStep)
{
    failure_timeline three_rows;
    three_rows.n_satellites = 2;
    three_rows.n_steps = 3;
    three_rows.masks.assign(6, 0);
    EXPECT_NO_THROW(validate(three_rows, 2, 3));
    EXPECT_THROW(validate(three_rows, 2, 2), contract_violation);
    EXPECT_THROW(validate(three_rows, 2, 4), contract_violation);
    EXPECT_THROW(validate(three_rows, 3, 3), contract_violation);

    // Zero rows and one row fit any grid; a row must span the satellites.
    for (const int n_steps : {1, 2, 5}) {
        EXPECT_NO_THROW(validate(failure_timeline{}, 2, n_steps)) << n_steps;
        EXPECT_NO_THROW(validate(failure_timeline::from_static_mask({0, 1}), 2, n_steps))
            << n_steps;
        EXPECT_THROW(validate(failure_timeline::from_static_mask({0, 1, 0}), 2, n_steps),
                     contract_violation)
            << n_steps;
    }

    failure_timeline short_storage = three_rows;
    short_storage.masks.pop_back();
    EXPECT_THROW(validate(short_storage, 2, 3), contract_violation);
}

TEST(Timeline, ValidateRejectsMalformedTimelines)
{
    failure_timeline negative;
    negative.n_satellites = -1;
    EXPECT_THROW(validate(negative, -1, 1), contract_violation);

    failure_timeline mismatch;
    mismatch.n_satellites = 3;
    mismatch.n_steps = 2;
    mismatch.masks = {0, 0, 0}; // one row short
    EXPECT_THROW(validate(mismatch, 3, 2), contract_violation);
}

// --- degradation-trace helpers ----------------------------------------------

TEST(Timeline, FirstTimeBelowFindsTheCrossing)
{
    const std::vector<double> trace{1.0, 0.9, 0.4, 0.6, 0.2};
    const std::vector<double> offsets{0.0, 10.0, 20.0, 30.0, 40.0};
    EXPECT_EQ(first_time_below(trace, offsets, 0.5), 20.0);
    EXPECT_EQ(first_time_below(trace, offsets, 0.95), 10.0);
    // Never crossing reports -1, not an offset.
    EXPECT_EQ(first_time_below(trace, offsets, 0.1), -1.0);
    EXPECT_EQ(first_time_below({}, {}, 0.5), -1.0);
}

TEST(Timeline, RecoveryHeadroomIsFinalMinusMinimum)
{
    EXPECT_EQ(recovery_headroom(std::vector<double>{1.0, 0.3, 0.7}), 0.7 - 0.3);
    // Monotone degradation never climbs back.
    EXPECT_EQ(recovery_headroom(std::vector<double>{1.0, 0.6, 0.2}), 0.0);
    EXPECT_EQ(recovery_headroom(std::vector<double>{}), 0.0);
}

// --- static-draw regression (RNG stream hygiene guard) ------------------------

// `sample_failures` must keep drawing from the legacy direct `rng(seed)`
// stream: the timeline generators use `rng::split` sub-streams, and this
// fixture pins the legacy masks bit-for-bit so the split can never leak
// into (or shift) the static draws.
TEST(Timeline, LegacySampleFailuresMasksAreBitIdenticalToPrePRDraws)
{
    const auto topo = build_walker_grid_topology(small_grid());

    failure_scenario loss25;
    loss25.mode = failure_mode::random_loss;
    loss25.loss_fraction = 0.25;
    loss25.seed = 11;
    EXPECT_EQ(failed_indices(sample_failures(topo, loss25)),
              (std::vector<int>{1, 5, 6, 7, 9, 13, 26, 27, 29}));

    failure_scenario loss50;
    loss50.mode = failure_mode::random_loss;
    loss50.loss_fraction = 0.5;
    loss50.seed = 42;
    EXPECT_EQ(failed_indices(sample_failures(topo, loss50)),
              (std::vector<int>{3, 4, 5, 6, 7, 8, 10, 13, 14, 17, 21, 22, 23, 29,
                                31, 33, 34, 35}));

    failure_scenario attack2;
    attack2.mode = failure_mode::plane_attack;
    attack2.planes_attacked = 2;
    attack2.seed = 11;
    EXPECT_EQ(failed_indices(sample_failures(topo, attack2)),
              (std::vector<int>{6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}));

    failure_scenario attack3;
    attack3.mode = failure_mode::plane_attack;
    attack3.planes_attacked = 3;
    attack3.seed = 7;
    EXPECT_EQ(failed_indices(sample_failures(topo, attack3)),
              (std::vector<int>{0, 1, 2, 3, 4, 5, 24, 25, 26, 27, 28, 29, 30, 31,
                                32, 33, 34, 35}));

    failure_scenario radiation;
    radiation.mode = failure_mode::radiation_poisson;
    radiation.plane_daily_fluence.assign(6, 2.0e10);
    radiation.horizon_days = 5.0 * 365.25;
    radiation.seed = 13;
    EXPECT_EQ(failed_indices(sample_failures(topo, radiation)),
              (std::vector<int>{0, 3, 6, 13, 14, 18, 19, 25, 29, 30}));
}

// --- timeline generators ------------------------------------------------------

std::vector<double> hourly_offsets(int n_steps)
{
    std::vector<double> offsets(static_cast<std::size_t>(n_steps));
    for (int i = 0; i < n_steps; ++i) offsets[static_cast<std::size_t>(i)] = i * 3600.0;
    return offsets;
}

failure_scenario cascade_scenario()
{
    failure_scenario s;
    s.mode = failure_mode::kessler_cascade;
    s.cascade_initial_hits = 2;
    s.cascade_base_daily_hazard = 0.01;
    s.cascade_escalation = 0.4;
    s.cascade_cooldown_s = 4.0 * 3600.0;
    s.seed = 5;
    return s;
}

TEST(Timeline, CascadeTimelineIsMonotoneDeterministicAndSeedSensitive)
{
    const auto topo = build_walker_grid_topology(small_grid());
    const auto offsets = hourly_offsets(24);
    const auto epoch = astro::instant::j2000();
    const auto scenario = cascade_scenario();

    const auto timeline = sample_failure_timeline(topo, scenario, offsets, epoch);
    validate(timeline, 36, 24);
    EXPECT_EQ(timeline.n_satellites, 36);
    EXPECT_EQ(timeline.n_steps, 24);
    EXPECT_EQ(timeline.n_failed_at(0), scenario.cascade_initial_hits);
    // Failures are permanent: the failed set only grows.
    for (int i = 1; i < 24; ++i) {
        const auto prev = timeline.step(i - 1);
        const auto cur = timeline.step(i);
        for (std::size_t s = 0; s < prev.size(); ++s)
            EXPECT_LE(prev[s], cur[s]);
    }

    const auto again = sample_failure_timeline(topo, scenario, offsets, epoch);
    EXPECT_EQ(timeline.masks, again.masks);

    auto reseeded = scenario;
    reseeded.seed = 6;
    const auto other = sample_failure_timeline(topo, reseeded, offsets, epoch);
    EXPECT_NE(timeline.masks, other.masks);
}

TEST(Timeline, CascadePrefixStableWhenHorizonGrows)
{
    // Per-step RNG sub-streams mean extending the sweep never rewrites the
    // steps already drawn — a longer study stays comparable to a shorter one.
    const auto topo = build_walker_grid_topology(small_grid());
    const auto epoch = astro::instant::j2000();
    const auto scenario = cascade_scenario();

    const auto short_run =
        sample_failure_timeline(topo, scenario, hourly_offsets(8), epoch);
    const auto long_run =
        sample_failure_timeline(topo, scenario, hourly_offsets(24), epoch);
    for (int i = 0; i < 8; ++i) {
        const auto a = short_run.step(i);
        const auto b = long_run.step(i);
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
}

TEST(Timeline, CascadeEscalationAcceleratesTheCollapse)
{
    const auto topo = build_walker_grid_topology(small_grid());
    const auto offsets = hourly_offsets(36);
    const auto epoch = astro::instant::j2000();

    auto mild = cascade_scenario();
    mild.cascade_escalation = 0.0; // pure ambient hazard, no feedback
    auto fierce = cascade_scenario();
    fierce.cascade_escalation = 1.5;

    const auto mild_timeline = sample_failure_timeline(topo, mild, offsets, epoch);
    const auto fierce_timeline =
        sample_failure_timeline(topo, fierce, offsets, epoch);
    EXPECT_GT(fierce_timeline.final_n_failed(), mild_timeline.final_n_failed());
}

TEST(Timeline, StormTimelineConfinesLossesToTheWindow)
{
    const auto topo = build_walker_grid_topology(small_grid());
    const auto offsets = hourly_offsets(24);
    // Near the cycle-24 maximum, where `solar_activity` lets the storm bite
    // (a quiet-sun epoch damps the multiplier to nearly nothing).
    const auto epoch = astro::instant::from_calendar(2014, 4, 1, 0, 0, 0.0);

    failure_scenario storm;
    storm.mode = failure_mode::solar_storm;
    storm.plane_daily_fluence.assign(6, 5.0e10);
    storm.storm_start_s = 6.0 * 3600.0;
    storm.storm_duration_s = 6.0 * 3600.0;
    storm.storm_fluence_multiplier = 4000.0;
    storm.seed = 3;

    const auto timeline = sample_failure_timeline(topo, storm, offsets, epoch);
    validate(timeline, 36, 24);
    EXPECT_EQ(timeline.n_steps, 24);
    // Nothing fails before the storm opens...
    EXPECT_EQ(timeline.n_failed_at(0), 0);
    for (int i = 1; i <= 6; ++i) EXPECT_EQ(timeline.n_failed_at(i), 0);
    // ...the storm kills someone...
    EXPECT_GT(timeline.final_n_failed(), 0);
    // ...and the post-storm rows are frozen (no further losses).
    for (int i = 13; i < 24; ++i)
        EXPECT_EQ(timeline.n_failed_at(i), timeline.n_failed_at(12));

    const auto again = sample_failure_timeline(topo, storm, offsets, epoch);
    EXPECT_EQ(timeline.masks, again.masks);
}

// --- reference generators ------------------------------------------------------
//
// The Kessler cascade and the solar storm as two plain loops, kept here as
// the reference of the one hazard loop `sample_failure_timeline` runs for
// both: each step copies the last row forward, sets per-plane failure
// probabilities, and draws one Bernoulli per live satellite in index order
// on the step's own sub-stream `rng::split(seed, purpose, step)`.

constexpr std::uint64_t reference_purpose_cascade = 1;
constexpr std::uint64_t reference_purpose_storm = 2;

std::vector<int> reference_draw_distinct(int n, int k, rng& r)
{
    std::vector<int> idx(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
    for (int j = 0; j < k; ++j) {
        const auto pick = static_cast<std::size_t>(r.uniform_int(j, n - 1));
        std::swap(idx[static_cast<std::size_t>(j)], idx[pick]);
    }
    idx.resize(static_cast<std::size_t>(k));
    return idx;
}

void reference_deposit(std::vector<double>& debris, int plane)
{
    const int n_planes = static_cast<int>(debris.size());
    debris[static_cast<std::size_t>(plane)] += 1.0;
    if (n_planes <= 1) return;
    const int up = (plane + 1) % n_planes;
    const int down = (plane + n_planes - 1) % n_planes;
    debris[static_cast<std::size_t>(up)] += 0.5;
    if (down != up) debris[static_cast<std::size_t>(down)] += 0.5;
}

std::vector<std::uint8_t> reference_cascade(const lsn_topology& topology,
                                            const failure_scenario& scenario,
                                            std::span<const double> offsets_s)
{
    const int n = static_cast<int>(topology.satellites.size());
    const int n_steps = static_cast<int>(offsets_s.size());
    const auto plane_of = [&](int s) {
        return topology.satellites[static_cast<std::size_t>(s)].plane;
    };
    std::vector<std::uint8_t> masks(static_cast<std::size_t>(n_steps * n), 0);
    const auto row = [&](int i) { return masks.data() + static_cast<std::size_t>(i * n); };
    std::vector<double> debris(static_cast<std::size_t>(plane_count(topology)), 0.0);
    {
        rng r = rng::split(scenario.seed, reference_purpose_cascade, 0);
        for (const int s : reference_draw_distinct(n, scenario.cascade_initial_hits, r)) {
            row(0)[s] = 1;
            reference_deposit(debris, plane_of(s));
        }
    }
    std::vector<double> p_fail(debris.size());
    for (int i = 1; i < n_steps; ++i) {
        std::copy_n(row(i - 1), n, row(i));
        const double dt_s = offsets_s[static_cast<std::size_t>(i)] -
                            offsets_s[static_cast<std::size_t>(i - 1)];
        const double decay = std::exp(-dt_s / scenario.cascade_cooldown_s);
        for (double& d : debris) d *= decay;
        for (std::size_t p = 0; p < debris.size(); ++p)
            p_fail[p] = 1.0 - std::exp(-(scenario.cascade_base_daily_hazard +
                                         scenario.cascade_escalation * debris[p]) *
                                       (dt_s / 86400.0));
        rng r = rng::split(scenario.seed, reference_purpose_cascade,
                           static_cast<std::uint64_t>(i));
        std::vector<int> lost;
        for (int s = 0; s < n; ++s)
            if (!row(i)[s] && r.bernoulli(p_fail[static_cast<std::size_t>(plane_of(s))])) {
                row(i)[s] = 1;
                lost.push_back(s);
            }
        for (const int s : lost) reference_deposit(debris, plane_of(s));
    }
    return masks;
}

std::vector<std::uint8_t> reference_storm(const lsn_topology& topology,
                                          const failure_scenario& scenario,
                                          std::span<const double> offsets_s,
                                          const astro::instant& epoch)
{
    const int n = static_cast<int>(topology.satellites.size());
    const int n_steps = static_cast<int>(offsets_s.size());
    std::vector<std::uint8_t> masks(static_cast<std::size_t>(n_steps * n), 0);
    const auto row = [&](int i) { return masks.data() + static_cast<std::size_t>(i * n); };
    std::vector<double> p_fail(scenario.plane_daily_fluence.size());
    for (int i = 1; i < n_steps; ++i) {
        std::copy_n(row(i - 1), n, row(i));
        const double t0 = offsets_s[static_cast<std::size_t>(i - 1)];
        const double t1 = offsets_s[static_cast<std::size_t>(i)];
        const double t_mid = 0.5 * (t0 + t1);
        double window = 0.0;
        const double x = (t_mid - scenario.storm_start_s) / scenario.storm_duration_s;
        if (x >= 0.0 && x <= 1.0)
            window = 0.5 * (1.0 - std::cos(2.0 * 3.14159265358979323846 * x));
        const double multiplier =
            1.0 + (scenario.storm_fluence_multiplier - 1.0) * window *
                      radiation::solar_activity(epoch.plus_seconds(t_mid));
        for (std::size_t p = 0; p < p_fail.size(); ++p)
            p_fail[p] = 1.0 - std::exp(-annual_failure_rate(
                                            scenario.plane_daily_fluence[p] * multiplier) *
                                        ((t1 - t0) / 86400.0 / 365.25));
        rng r = rng::split(scenario.seed, reference_purpose_storm,
                           static_cast<std::uint64_t>(i));
        for (int s = 0; s < n; ++s) {
            const int plane = topology.satellites[static_cast<std::size_t>(s)].plane;
            if (!row(i)[s] && r.bernoulli(p_fail[static_cast<std::size_t>(plane)]))
                row(i)[s] = 1;
        }
    }
    return masks;
}

/// 24 steps an hour apart, each shifted by 0, 10 or 20 minutes: uneven
/// steps, so every hazard reads its own step length.
std::vector<double> uneven_offsets()
{
    std::vector<double> offsets;
    for (int i = 0; i < 24; ++i) offsets.push_back(i * 3600.0 + (i % 3) * 600.0);
    return offsets;
}

TEST(Timeline, CascadeAndStormMatchTheirReferenceLoops)
{
    // Per-plane probabilities well inside (0, 1) at most steps, so every
    // draw's outcome is a coin flip the reference must call the same way.
    const auto topo = build_walker_grid_topology(small_grid(8, 12));
    const auto offsets = uneven_offsets();
    // Near the cycle-24 maximum, where the storm bites.
    const auto epoch = astro::instant::from_calendar(2014, 4, 1, 0, 0, 0.0);
    const int n = static_cast<int>(topo.satellites.size());

    for (const std::uint64_t seed : {3u, 17u, 101u}) {
        auto cascade = cascade_scenario();
        cascade.cascade_initial_hits = 3;
        cascade.cascade_base_daily_hazard = 0.5;
        cascade.cascade_escalation = 0.6;
        cascade.cascade_cooldown_s = 3.0 * 3600.0;
        cascade.seed = seed;
        const auto cascaded = sample_failure_timeline(topo, cascade, offsets, epoch);
        EXPECT_EQ(cascaded.masks, reference_cascade(topo, cascade, offsets)) << seed;
        EXPECT_GT(cascaded.final_n_failed(), cascaded.n_failed_at(0) + 10) << seed;
        EXPECT_LT(cascaded.final_n_failed(), n) << seed;

        failure_scenario storm;
        storm.mode = failure_mode::solar_storm;
        for (int p = 0; p < 8; ++p) storm.plane_daily_fluence.push_back(3.0e10 + 0.5e10 * p);
        storm.storm_start_s = 2.0 * 3600.0;
        storm.storm_duration_s = 18.0 * 3600.0;
        storm.storm_fluence_multiplier = 4000.0;
        storm.seed = seed;
        const auto stormed = sample_failure_timeline(topo, storm, offsets, epoch);
        EXPECT_EQ(stormed.masks, reference_storm(topo, storm, offsets, epoch)) << seed;
        EXPECT_GT(stormed.final_n_failed(), 10) << seed;
        EXPECT_LT(stormed.final_n_failed(), n) << seed;
    }
}

TEST(Timeline, StaticModesWrapTheirSampleFailuresMask)
{
    const auto topo = build_walker_grid_topology(small_grid());
    const auto offsets = hourly_offsets(4);
    const auto epoch = astro::instant::j2000();

    failure_scenario loss;
    loss.mode = failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = 11;

    const auto timeline = sample_failure_timeline(topo, loss, offsets, epoch);
    EXPECT_TRUE(timeline.is_static());
    EXPECT_EQ(timeline.masks, sample_failures(topo, loss));

    failure_scenario none;
    const auto baseline = sample_failure_timeline(topo, none, offsets, epoch);
    EXPECT_TRUE(baseline.is_static());
    EXPECT_EQ(baseline.final_n_failed(), 0);
    EXPECT_EQ(baseline.masks, sample_failures(topo, none));

    failure_scenario attack;
    attack.mode = failure_mode::plane_attack;
    attack.planes_attacked = 2;
    attack.seed = 5;
    const auto attacked = sample_failure_timeline(topo, attack, offsets, epoch);
    EXPECT_TRUE(attacked.is_static());
    EXPECT_EQ(attacked.final_n_failed(), 12); // two 6-satellite planes
    EXPECT_EQ(attacked.masks, sample_failures(topo, attack));

    failure_scenario radiation;
    radiation.mode = failure_mode::radiation_poisson;
    // Reference fluence over ten years: about a quarter of the shell fails.
    radiation.plane_daily_fluence.assign(6, 7.0e9);
    radiation.horizon_days = 3652.5;
    radiation.seed = 9;
    const auto irradiated =
        sample_failure_timeline(topo, radiation, offsets, epoch);
    EXPECT_TRUE(irradiated.is_static());
    EXPECT_GT(irradiated.final_n_failed(), 0);
    EXPECT_LT(irradiated.final_n_failed(), 36);
    EXPECT_EQ(irradiated.masks, sample_failures(topo, radiation));
}

TEST(Timeline, CanonicalScenarioIsTheWholeInputOfEveryDraw)
{
    const auto topo = build_walker_grid_topology(small_grid());
    const auto offsets = hourly_offsets(6);
    // Near the cycle-24 maximum, where the storm bites.
    const auto epoch = astro::instant::from_calendar(2014, 4, 1, 0, 0, 0.0);
    const auto draw = [&](const failure_scenario& scenario) {
        return sample_failure_timeline(topo, scenario, offsets, epoch);
    };

    failure_scenario loss;
    loss.mode = failure_mode::random_loss;
    loss.loss_fraction = 0.25;
    loss.seed = 11;

    failure_scenario attack;
    attack.mode = failure_mode::plane_attack;
    attack.planes_attacked = 2;
    attack.seed = 5;

    failure_scenario radiation;
    radiation.mode = failure_mode::radiation_poisson;
    radiation.plane_daily_fluence.assign(6, 7.0e9);
    radiation.horizon_days = 3652.5;
    radiation.seed = 9;

    failure_scenario storm;
    storm.mode = failure_mode::solar_storm;
    storm.plane_daily_fluence.assign(6, 5.0e10);
    storm.storm_start_s = 3600.0;
    storm.storm_duration_s = 3.0 * 3600.0;
    storm.storm_fluence_multiplier = 4000.0;
    storm.seed = 3;

    const std::vector<std::pair<failure_scenario, std::vector<std::string>>> cases{
        {failure_scenario{}, {}}, // the all-zero mask reads no seed
        {loss, {"loss_fraction", "seed"}},
        {attack, {"planes_attacked", "seed"}},
        {radiation, {"plane_daily_fluence", "horizon_days", "seed"}},
        {cascade_scenario(),
         {"cascade_initial_hits", "cascade_base_daily_hazard", "cascade_escalation",
          "cascade_cooldown_s", "seed"}},
        {storm,
         {"plane_daily_fluence", "storm_start_s", "storm_duration_s",
          "storm_fluence_multiplier", "seed"}},
    };
    for (const auto& [base, reads] : cases) {
        SCOPED_TRACE(static_cast<int>(base.mode));
        // Every draw but the baseline's fails someone, so a field that moves
        // the draw shows.
        if (base.mode != failure_mode::none) {
            EXPECT_GT(draw(base).final_n_failed(), 0);
        }
        testing::expect_canonical_is_whole_input(base, reads, draw);
    }
}

TEST(Timeline, TimelineModesRejectSampleFailuresAndAdversaryRejectsLsn)
{
    const auto topo = build_walker_grid_topology(small_grid());
    const auto offsets = hourly_offsets(4);
    const auto epoch = astro::instant::j2000();

    // Timeline modes have no single static mask.
    EXPECT_THROW(sample_failures(topo, cascade_scenario()), contract_violation);

    // The greedy adversary needs the delivered-traffic oracle above lsn.
    failure_scenario adversary;
    adversary.mode = failure_mode::greedy_adversary;
    adversary.adversary_budget = 1;
    EXPECT_THROW(sample_failure_timeline(topo, adversary, offsets, epoch),
                 contract_violation);
}

TEST(Timeline, ValidateRejectsOutOfRangeTimelineKnobs)
{
    const auto topo = build_walker_grid_topology(small_grid());

    auto bad_hits = cascade_scenario();
    bad_hits.cascade_initial_hits = -1;
    EXPECT_THROW(validate(bad_hits), contract_violation);

    auto too_many_hits = cascade_scenario();
    too_many_hits.cascade_initial_hits = 37; // > 36 satellites
    EXPECT_THROW(validate(too_many_hits, topo), contract_violation);

    auto bad_escalation = cascade_scenario();
    bad_escalation.cascade_escalation = -0.1;
    EXPECT_THROW(validate(bad_escalation), contract_violation);

    auto bad_cooldown = cascade_scenario();
    bad_cooldown.cascade_cooldown_s = 0.0;
    EXPECT_THROW(validate(bad_cooldown), contract_violation);

    failure_scenario storm;
    storm.mode = failure_mode::solar_storm;
    storm.plane_daily_fluence.assign(6, 5.0e10);

    auto bad_duration = storm;
    bad_duration.storm_duration_s = -1.0;
    EXPECT_THROW(validate(bad_duration), contract_violation);

    auto damping_multiplier = storm;
    damping_multiplier.storm_fluence_multiplier = 0.5; // storms never help
    EXPECT_THROW(validate(damping_multiplier), contract_violation);

    auto wrong_planes = storm;
    wrong_planes.plane_daily_fluence.assign(4, 5.0e10); // 6-plane topology
    EXPECT_THROW(validate(wrong_planes, topo), contract_violation);

    failure_scenario adversary;
    adversary.mode = failure_mode::greedy_adversary;

    auto bad_budget = adversary;
    bad_budget.adversary_budget = -1;
    EXPECT_THROW(validate(bad_budget), contract_violation);

    auto over_budget = adversary;
    over_budget.adversary_budget = 7; // > 6 planes
    EXPECT_THROW(validate(over_budget, topo), contract_violation);

    auto bad_interval = adversary;
    bad_interval.adversary_strike_interval_steps = 0;
    EXPECT_THROW(validate(bad_interval), contract_violation);

    auto bad_stride = adversary;
    bad_stride.adversary_eval_stride = 0;
    EXPECT_THROW(validate(bad_stride), contract_violation);
}

// --- timeline sweeps ----------------------------------------------------------

TEST(Timeline, TimelineSweepDegradesStepTracesAndIsThreadCountInvariant)
{
    const auto topo = build_walker_grid_topology(small_grid());
    const auto stations = default_ground_stations();
    const auto epoch = astro::instant::j2000();
    const auto offsets = hourly_offsets(12);
    const sweep_geometry geometry(snapshot_builder(topo, stations, epoch, deg2rad(25.0)),
                                  offsets);

    auto scenario = cascade_scenario();
    scenario.cascade_escalation = 1.0;
    const auto timeline = sample_failure_timeline(topo, scenario, offsets, epoch);

    std::vector<scenario_sweep_result> runs;
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        runs.push_back(run_scenario_sweep_timeline(geometry, timeline));
    }
    set_thread_count(0);

    const auto& r = runs[0];
    ASSERT_EQ(r.step_n_failed.size(), offsets.size());
    ASSERT_EQ(r.step_giant_fraction.size(), offsets.size());
    ASSERT_EQ(r.step_pair_reachable_fraction.size(), offsets.size());
    // The sweep sees the process unfold: the per-step failed count is the
    // timeline's and the giant component shrinks as satellites die.
    for (std::size_t i = 0; i < offsets.size(); ++i)
        EXPECT_EQ(r.step_n_failed[i], timeline.n_failed_at(static_cast<int>(i)));
    EXPECT_EQ(r.metrics.n_failed, timeline.final_n_failed());
    EXPECT_LT(r.step_giant_fraction.back(), r.step_giant_fraction.front());

    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].step_n_failed, r.step_n_failed);
        EXPECT_EQ(runs[i].step_giant_fraction, r.step_giant_fraction);
        EXPECT_EQ(runs[i].pair_reachable_fraction, r.pair_reachable_fraction);
        EXPECT_EQ(runs[i].pair_mean_latency_ms, r.pair_mean_latency_ms);
        EXPECT_EQ(runs[i].metrics.p95_latency_ms, r.metrics.p95_latency_ms);
    }
}

} // namespace
} // namespace ssplane::lsn
