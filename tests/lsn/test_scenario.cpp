#include "lsn/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "astro/constants.h"
#include "capped_topology.h"
#include "geo/geodesy.h"
#include "lsn/routing.h"
#include "reference_dijkstra.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"

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

/// Sweep `scenario` on a freshly built builder and propagation pass.
scenario_sweep_result sweep_scenario(const lsn_topology& topo,
                                     const std::vector<ground_station>& stations,
                                     const failure_scenario& scenario,
                                     const scenario_sweep_options& opts)
{
    const auto epoch = astro::instant::j2000();
    const snapshot_builder builder(topo, stations, epoch, opts.min_elevation_rad,
                                   opts.max_isl_range_m);
    const auto offsets = sweep_offsets(opts.duration_s, opts.step_s);
    return run_scenario_sweep_timeline(
        sweep_geometry(builder, offsets),
        sample_failure_timeline(topo, scenario, offsets, epoch));
}

/// The builder's graph at one instant: a one-offset `positions_at_offsets`
/// grid fed to `snapshot_from_positions`.
network_snapshot snapshot_at_offset(const snapshot_builder& builder, double offset_s,
                                    std::span<const std::uint8_t> failed = {})
{
    const std::vector<double> offsets{offset_s};
    return builder.snapshot_from_positions(builder.positions_at_offsets(offsets)[0],
                                           failed);
}

TEST(Scenario, BatchedPositionsMatchPerStepSnapshots)
{
    // One batched propagation pass gives each step exactly the geometry a
    // one-offset pass gives: the same positions, so the same links with the
    // same latencies, bit for bit.
    const auto topo = build_walker_grid_topology(small_grid(3, 5));
    const auto epoch = astro::instant::j2000();
    const snapshot_builder builder(topo, {}, epoch, deg2rad(30.0));

    const std::vector<double> offsets{0.0, 600.0, 1800.0, 7200.0};
    const auto batched = builder.positions_at_offsets(offsets);
    ASSERT_EQ(batched.size(), offsets.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        const std::vector<double> one_offset{offsets[i]};
        const auto single = builder.positions_at_offsets(one_offset)[0];
        ASSERT_EQ(batched[i].size(), single.size());
        for (std::size_t s = 0; s < single.size(); ++s) {
            EXPECT_EQ(batched[i][s].x, single[s].x);
            EXPECT_EQ(batched[i][s].y, single[s].y);
            EXPECT_EQ(batched[i][s].z, single[s].z);
        }
        const auto snap = snapshot_at_offset(builder, offsets[i]);
        ASSERT_EQ(snap.n_satellites, static_cast<int>(batched[i].size()));
        ASSERT_FALSE(snap.links.empty());
        for (const auto& link : snap.links)
            EXPECT_EQ(link.latency_s,
                      (batched[i][static_cast<std::size_t>(link.a)] -
                       batched[i][static_cast<std::size_t>(link.b)]).norm() /
                          astro::speed_of_light_m_s);
    }
}

TEST(Scenario, FailedSatellitesGetNoEdges)
{
    const auto topo = build_walker_grid_topology(small_grid(4, 4));
    const auto stations = default_ground_stations();
    const snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                   deg2rad(30.0));
    std::vector<std::uint8_t> failed(topo.satellites.size(), 0);
    failed[0] = 1;
    failed[5] = 1;

    const auto snap = snapshot_at_offset(builder, 0.0, failed);
    EXPECT_TRUE(snap.arcs_of(0).empty());
    EXPECT_TRUE(snap.arcs_of(5).empty());
    for (const auto& link : snap.links)
        EXPECT_TRUE(link.a != 0 && link.a != 5 && link.b != 0 && link.b != 5);

    // The unfailed part of the graph is untouched.
    const auto full = snapshot_at_offset(builder, 0.0);
    for (int u = 0; u < snap.n_nodes(); ++u) {
        if (u == 0 || u == 5) continue;
        std::size_t kept = 0;
        for (const auto& arc : full.arcs_of(u))
            if (arc.to != 0 && arc.to != 5) ++kept;
        EXPECT_EQ(snap.arcs_of(u).size(), kept);
    }
}

TEST(Scenario, BuilderRejectsDegenerateGeometryThresholds)
{
    // Elevation is in radians: 30.0, degrees by mistake, would silently
    // gate every ground link shut. The ISL range must be positive.
    const auto topo = build_walker_grid_topology(small_grid(6, 6));
    const auto stations = default_ground_stations();
    const auto build = [&](double min_elevation_rad, double max_isl_range_m) {
        return snapshot_builder(topo, stations, astro::instant::j2000(),
                                min_elevation_rad, max_isl_range_m);
    };
    constexpr double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(build(30.0, 6.0e6), contract_violation);
    EXPECT_THROW(build(-2.0, 6.0e6), contract_violation);
    EXPECT_THROW(build(nan, 6.0e6), contract_violation);
    EXPECT_THROW(build(inf, 6.0e6), contract_violation);
    EXPECT_THROW(build(-inf, 6.0e6), contract_violation);
    EXPECT_THROW(build(deg2rad(30.0), 0.0), contract_violation);
    EXPECT_THROW(build(deg2rad(30.0), -1.0e6), contract_violation);
    EXPECT_THROW(build(deg2rad(30.0), nan), contract_violation);
    EXPECT_NO_THROW(build(pi / 2.0, 6.0e6));
    EXPECT_NO_THROW(build(-pi / 2.0, 6.0e6));

    // The same 10° in radians links ground stations at J2000.
    const auto snap = snapshot_at_offset(build(deg2rad(10.0), 6.0e6), 0.0);
    int ground_links = 0;
    for (const auto& link : snap.links) ground_links += link.b >= snap.n_satellites;
    EXPECT_GT(ground_links, 0);
}

TEST(Scenario, SampleFailuresCountsPerMode)
{
    const auto topo = build_walker_grid_topology(small_grid(6, 6));
    const auto count = [](const std::vector<std::uint8_t>& mask) {
        return std::count(mask.begin(), mask.end(), 1);
    };

    failure_scenario none;
    EXPECT_EQ(count(sample_failures(topo, none)), 0);

    failure_scenario random;
    random.mode = failure_mode::random_loss;
    random.loss_fraction = 0.25;
    random.seed = 11;
    EXPECT_EQ(count(sample_failures(topo, random)), 9); // exactly round(0.25 * 36)

    failure_scenario attack;
    attack.mode = failure_mode::plane_attack;
    attack.planes_attacked = 2;
    attack.seed = 11;
    const auto attacked = sample_failures(topo, attack);
    EXPECT_EQ(count(attacked), 12);
    // Whole planes only: every plane is either fully dead or fully alive.
    for (int plane = 0; plane < 6; ++plane) {
        int dead = 0;
        for (int slot = 0; slot < 6; ++slot) dead += attacked[plane * 6 + slot];
        EXPECT_TRUE(dead == 0 || dead == 6);
    }

    failure_scenario cold;
    cold.mode = failure_mode::radiation_poisson;
    cold.plane_daily_fluence.assign(6, 0.0); // zero fluence -> zero rate
    EXPECT_EQ(count(sample_failures(topo, cold)), 0);

    failure_scenario hot = cold;
    hot.plane_daily_fluence.assign(6, 1.0e30); // certain failure
    hot.horizon_days = 10.0 * 365.25;
    EXPECT_EQ(count(sample_failures(topo, hot)), 36);
}

TEST(Scenario, SampleFailuresDeterministicInSeed)
{
    const auto topo = build_walker_grid_topology(small_grid(5, 4));
    failure_scenario s;
    s.mode = failure_mode::random_loss;
    s.loss_fraction = 0.3;
    s.seed = 77;
    EXPECT_EQ(sample_failures(topo, s), sample_failures(topo, s));
}

TEST(Scenario, ValidateRejectsOutOfRangeKnobs)
{
    // Valid scenarios of every mode pass both forms.
    const auto topo = build_walker_grid_topology(small_grid(3, 3));
    EXPECT_NO_THROW(validate(failure_scenario{}));
    failure_scenario ok;
    ok.mode = failure_mode::radiation_poisson;
    ok.plane_daily_fluence.assign(3, 1.0e9);
    EXPECT_NO_THROW(validate(ok, topo));

    failure_scenario low;
    low.mode = failure_mode::random_loss;
    low.loss_fraction = -0.1;
    EXPECT_THROW(validate(low), contract_violation);
    low.loss_fraction = 1.5;
    EXPECT_THROW(validate(low), contract_violation);
    low.loss_fraction = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(validate(low), contract_violation);

    failure_scenario planes;
    planes.mode = failure_mode::plane_attack;
    planes.planes_attacked = -1;
    EXPECT_THROW(validate(planes), contract_violation);

    failure_scenario horizon = ok;
    horizon.horizon_days = 0.0; // non-positive exposure window
    EXPECT_THROW(validate(horizon), contract_violation);
    horizon.horizon_days = -3.0;
    EXPECT_THROW(validate(horizon), contract_violation);
    failure_scenario fluence = ok;
    fluence.plane_daily_fluence[1] = -1.0;
    EXPECT_THROW(validate(fluence), contract_violation);

    // Topology-aware form: plane budget and fluence coverage. The fluence
    // vector must match the plane count exactly — extra entries are as
    // suspect as missing ones.
    failure_scenario over = planes;
    over.planes_attacked = 4; // only 3 planes exist
    EXPECT_THROW(validate(over, topo), contract_violation);
    failure_scenario wide = ok;
    wide.plane_daily_fluence.assign(5, 1.0e9);
    EXPECT_THROW(validate(wide, topo), contract_violation);

    EXPECT_EQ(plane_count(topo), 3);
}

TEST(Scenario, SampleFailuresValidation)
{
    const auto topo = build_walker_grid_topology(small_grid(3, 3));
    failure_scenario bad_fraction;
    bad_fraction.mode = failure_mode::random_loss;
    bad_fraction.loss_fraction = 1.5;
    EXPECT_THROW(sample_failures(topo, bad_fraction), contract_violation);

    failure_scenario bad_planes;
    bad_planes.mode = failure_mode::plane_attack;
    bad_planes.planes_attacked = 4;
    EXPECT_THROW(sample_failures(topo, bad_planes), contract_violation);

    failure_scenario short_fluence;
    short_fluence.mode = failure_mode::radiation_poisson;
    short_fluence.plane_daily_fluence.assign(1, 1.0e9); // 3 planes need 3 entries
    EXPECT_THROW(sample_failures(topo, short_fluence), contract_violation);
}

TEST(Scenario, GiantComponentFullGridIsWhole)
{
    const auto topo = build_walker_grid_topology(small_grid(6, 6));
    const snapshot_builder builder(topo, {}, astro::instant::j2000(), deg2rad(30.0),
                                   1.0e9);
    EXPECT_DOUBLE_EQ(giant_component_fraction(snapshot_at_offset(builder, 0.0)), 1.0);
}

TEST(Scenario, ShortestRouteOnDisconnectedSnapshot)
{
    // Kill every satellite: the ground stations have nothing to route over.
    const auto topo = build_walker_grid_topology(small_grid(4, 4));
    const auto stations = default_ground_stations();
    const snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                   deg2rad(30.0));
    const std::vector<std::uint8_t> all_failed(topo.satellites.size(), 1);
    const auto snap = snapshot_at_offset(builder, 0.0, all_failed);

    std::vector<int> every_node(static_cast<std::size_t>(snap.n_nodes()));
    for (int v = 0; v < snap.n_nodes(); ++v) every_node[static_cast<std::size_t>(v)] = v;
    router routes(snap);
    routes.route(snap.ground_node(0), every_node);
    constexpr double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(routes.latency_s(snap.ground_node(3)), inf);
    EXPECT_TRUE(routes.path_to(snap.ground_node(3)).empty());
    EXPECT_EQ(routes.latency_s(snap.ground_node(0)), 0.0);
    for (int s = 0; s < snap.n_satellites; ++s) EXPECT_EQ(routes.latency_s(s), inf);
    EXPECT_EQ(giant_component_fraction(snap, all_failed), 0.0);
}

TEST(Scenario, SweepPairMatrixMatchesRouteTrees)
{
    // A one-step sweep's pair matrix is each pair's latency in the
    // node-level reference tree: reachable pairs read 1 and their latency,
    // unreachable ones 0 and 0.
    // Anchorage (61°N) sits above this 53° grid's coverage band, so both
    // branches are exercised.
    const auto topo = build_walker_grid_topology(small_grid(10, 10));
    const auto stations = default_ground_stations();
    const snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                   deg2rad(25.0));
    const sweep_geometry geometry(builder, {900.0});
    const auto sweep = run_scenario_sweep_timeline(geometry, failure_timeline{});
    const auto snap = builder.snapshot_from_positions(geometry.positions()[0]);
    bool any_reachable = false;
    bool any_unreachable = false;
    for (int a = 0; a + 1 < snap.n_ground; ++a) {
        const auto tree = reference_dijkstra(snap, snap.ground_node(a));
        for (int b = a + 1; b < snap.n_ground; ++b) {
            const int dst = snap.ground_node(b);
            if (tree.reachable(dst)) {
                any_reachable = true;
                EXPECT_EQ(sweep.reachable(a, b), 1.0);
                EXPECT_EQ(sweep.mean_latency_ms(a, b),
                          tree.latency_s[static_cast<std::size_t>(dst)] * 1000.0);
            } else {
                any_unreachable = true;
                EXPECT_EQ(sweep.reachable(a, b), 0.0);
                EXPECT_EQ(sweep.mean_latency_ms(a, b), 0.0);
            }
        }
    }
    EXPECT_TRUE(any_reachable);
    EXPECT_TRUE(any_unreachable);
}

TEST(Scenario, PlaneAttackAndRandomLossGiantComponentCurves)
{
    const auto topo = build_walker_grid_topology(small_grid(6, 6));
    scenario_sweep_options opts;
    opts.duration_s = 1200.0;
    opts.step_s = 600.0;
    opts.max_isl_range_m = 1.0e9; // geometry never cuts the grid links

    // Whole-plane attack fragments the survivors along the plane ring:
    // removing k planes leaves 6-k planes split into at most k arcs, so the
    // giant component holds between ceil((6-k)/k) and 6-k planes.
    for (int k = 0; k <= 3; ++k) {
        failure_scenario attack;
        attack.mode = failure_mode::plane_attack;
        attack.planes_attacked = k;
        attack.seed = 21;
        const auto r = sweep_scenario(topo, {}, attack, opts);
        EXPECT_EQ(r.metrics.n_failed, 6 * k);
        EXPECT_LE(r.metrics.giant_component_fraction, 1.0 - k / 6.0 + 1e-12);
        if (k == 0) {
            EXPECT_DOUBLE_EQ(r.metrics.giant_component_fraction, 1.0);
        } else {
            const double min_arc_planes = std::ceil((6.0 - k) / k);
            EXPECT_GE(r.metrics.giant_component_fraction,
                      min_arc_planes / 6.0 - 1e-12);
        }
    }

    // Random loss of the same magnitude spreads over planes and rarely
    // fragments a +Grid, so its giant component hugs the survivor count.
    for (int k = 0; k <= 3; ++k) {
        failure_scenario random;
        random.mode = failure_mode::random_loss;
        random.loss_fraction = k / 6.0;
        random.seed = 21;
        const auto r = sweep_scenario(topo, {}, random, opts);
        EXPECT_EQ(r.metrics.n_failed, 6 * k);
        EXPECT_LE(r.metrics.giant_component_fraction, 1.0 - k / 6.0 + 1e-12);
    }
}

TEST(Scenario, CascadeOnStaticWiringNeverGrowsTheGiantComponent)
{
    // With a range that keeps every static link live at every step, a
    // Kessler cascade only removes satellites, and removing vertices can
    // never grow the largest component: each timeline row only gains
    // failures and the per-step giant fraction never rises.
    const std::vector<lsn_topology> topologies{
        build_walker_grid_topology(small_grid(10, 10)),
        build_walker_capped_topology(small_grid(10, 10), 3)};
    const auto epoch = astro::instant::j2000();
    const auto offsets = sweep_offsets(6.0 * 3600.0, 600.0);
    bool any_growth = false;
    bool any_fall = false;
    for (const auto& topo : topologies) {
        const sweep_geometry geometry(
            snapshot_builder(topo, {}, epoch, deg2rad(30.0), 5.0e7), offsets);
        const auto& builder = geometry.builder();
        for (const auto& step_positions : geometry.positions())
            ASSERT_EQ(builder.snapshot_from_positions(step_positions).links.size(),
                      topo.links.size());
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            failure_scenario cascade;
            cascade.mode = failure_mode::kessler_cascade;
            cascade.cascade_initial_hits = 3;
            cascade.cascade_base_daily_hazard = 0.2;
            cascade.cascade_escalation = 2.0;
            cascade.seed = seed;
            const auto timeline = sample_failure_timeline(topo, cascade, offsets, epoch);
            for (int i = 1; i < timeline.n_steps; ++i) {
                const auto before = timeline.step(i - 1);
                const auto after = timeline.step(i);
                for (std::size_t s = 0; s < before.size(); ++s)
                    EXPECT_LE(before[s], after[s]) << "seed " << seed << " step " << i;
            }
            any_growth |= timeline.final_n_failed() > timeline.n_failed_at(0);

            const auto sweep = run_scenario_sweep_timeline(geometry, timeline);
            ASSERT_EQ(sweep.step_giant_fraction.size(), offsets.size());
            for (std::size_t i = 1; i < sweep.step_giant_fraction.size(); ++i)
                EXPECT_LE(sweep.step_giant_fraction[i], sweep.step_giant_fraction[i - 1])
                    << "seed " << seed << " step " << i;
            any_fall |= sweep.step_giant_fraction.back() < sweep.step_giant_fraction.front();
        }
    }
    EXPECT_TRUE(any_growth);
    EXPECT_TRUE(any_fall);
}

TEST(Scenario, SweepOffsetsAreExactMultiplesOfTheStep)
{
    // A running sum would drift: 0.1 added ten times stops just below 1.0
    // and admits an eleventh step, and 0.7 steps wander off i * 0.7.
    const auto tenths = sweep_offsets(1.0, 0.1);
    ASSERT_EQ(tenths.size(), 10u);
    for (std::size_t i = 0; i < tenths.size(); ++i)
        EXPECT_EQ(tenths[i], static_cast<double>(i) * 0.1) << i;

    const auto sevenths = sweep_offsets(60.0, 0.7);
    ASSERT_EQ(sevenths.size(), 86u);
    for (std::size_t i = 0; i < sevenths.size(); ++i)
        EXPECT_EQ(sevenths[i], static_cast<double>(i) * 0.7) << i;

    // Integer steps land on the same grid as before.
    const auto day = sweep_offsets(86400.0, 1800.0);
    ASSERT_EQ(day.size(), 48u);
    EXPECT_EQ(day.back(), 84600.0);
}

TEST(Scenario, DegenerateTimeGrids)
{
    // A grid has at least one step: a zero or negative duration would sweep
    // nothing, and its zeroed metrics would read as total collapse.
    EXPECT_THROW(sweep_offsets(0.0, 300.0), contract_violation);
    EXPECT_THROW(sweep_offsets(-5.0, 300.0), contract_violation);
    EXPECT_THROW(sweep_offsets(100.0, 0.0), contract_violation);
    // A non-finite duration is rejected: +inf would append forever.
    constexpr double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(sweep_offsets(inf, 300.0), contract_violation);
    EXPECT_THROW(sweep_offsets(-inf, 300.0), contract_violation);
    EXPECT_THROW(sweep_offsets(std::numeric_limits<double>::quiet_NaN(), 300.0),
                 contract_violation);
    EXPECT_EQ(sweep_offsets(900.0, 300.0).size(), 3u);
    EXPECT_EQ(sweep_offsets(1.0, 300.0), std::vector<double>{0.0});

    // Nor can a geometry or a timeline be built over empty offsets.
    const auto topo = build_walker_grid_topology(small_grid(3, 3));
    const auto epoch = astro::instant::j2000();
    const snapshot_builder builder(topo, default_ground_stations(), epoch, deg2rad(25.0));
    EXPECT_THROW((void)sweep_geometry(builder, {}), contract_violation);
    for (const failure_mode mode : {failure_mode::none, failure_mode::kessler_cascade}) {
        failure_scenario scenario;
        scenario.mode = mode;
        EXPECT_THROW(sample_failure_timeline(topo, scenario, {}, epoch), contract_violation);
    }
}

TEST(Scenario, SweepDeterministicAcrossThreadCounts)
{
    const auto topo = build_walker_grid_topology(small_grid(4, 5));
    const auto all = default_ground_stations();
    const std::vector<ground_station> stations(all.begin(), all.begin() + 5);

    failure_scenario scenario;
    scenario.mode = failure_mode::random_loss;
    scenario.loss_fraction = 0.2;
    scenario.seed = 3;

    scenario_sweep_options opts;
    opts.duration_s = 3600.0;
    opts.step_s = 600.0;
    opts.min_elevation_rad = deg2rad(25.0);

    std::vector<scenario_sweep_result> runs;
    for (const unsigned threads : {1u, 2u, 5u}) {
        set_thread_count(threads);
        runs.push_back(sweep_scenario(topo, stations, scenario, opts));
    }
    set_thread_count(0);

    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].metrics.n_failed, runs[0].metrics.n_failed);
        EXPECT_EQ(runs[i].metrics.giant_component_fraction,
                  runs[0].metrics.giant_component_fraction);
        EXPECT_EQ(runs[i].metrics.pair_reachable_fraction,
                  runs[0].metrics.pair_reachable_fraction);
        EXPECT_EQ(runs[i].metrics.mean_latency_ms, runs[0].metrics.mean_latency_ms);
        EXPECT_EQ(runs[i].metrics.p95_latency_ms, runs[0].metrics.p95_latency_ms);
        EXPECT_EQ(runs[i].pair_reachable_fraction, runs[0].pair_reachable_fraction);
        EXPECT_EQ(runs[i].pair_mean_latency_ms, runs[0].pair_mean_latency_ms);
    }
}

TEST(Scenario, SweepBaselineVersusFailures)
{
    // A dense shell so most pairs are reachable at baseline.
    const auto topo = build_walker_grid_topology([] {
        auto p = small_grid(8, 10);
        p.altitude_m = 1200.0e3;
        p.inclination_rad = deg2rad(70.0);
        return p;
    }());
    const auto stations = default_ground_stations();
    scenario_sweep_options opts;
    opts.duration_s = 3600.0;
    opts.step_s = 900.0;
    opts.min_elevation_rad = deg2rad(25.0);
    opts.max_isl_range_m = 8.0e6; // keep the 1200 km shell's +Grid intact

    const auto baseline = sweep_scenario(topo, stations, {}, opts);
    EXPECT_EQ(baseline.metrics.n_failed, 0);
    EXPECT_DOUBLE_EQ(baseline.metrics.giant_component_fraction, 1.0);
    EXPECT_GT(baseline.metrics.pair_reachable_fraction, 0.6);
    EXPECT_GT(baseline.metrics.p95_latency_ms, baseline.metrics.mean_latency_ms * 0.5);
    EXPECT_DOUBLE_EQ(p95_latency_inflation(baseline, baseline), 1.0);

    failure_scenario heavy;
    heavy.mode = failure_mode::random_loss;
    heavy.loss_fraction = 0.5;
    heavy.seed = 9;
    const auto failed = sweep_scenario(topo, stations, heavy, opts);
    EXPECT_EQ(failed.metrics.n_failed, 40);
    EXPECT_LT(failed.metrics.giant_component_fraction,
              baseline.metrics.giant_component_fraction);
    EXPECT_LE(failed.metrics.pair_reachable_fraction,
              baseline.metrics.pair_reachable_fraction + 1e-12);

    // The all-pairs matrices are symmetric with an empty diagonal.
    const int n = baseline.n_stations;
    for (int a = 0; a < n; ++a) {
        EXPECT_EQ(baseline.reachable(a, a), 0.0);
        for (int b = 0; b < n; ++b) {
            EXPECT_EQ(baseline.reachable(a, b), baseline.reachable(b, a));
            EXPECT_EQ(baseline.mean_latency_ms(a, b), baseline.mean_latency_ms(b, a));
        }
    }
}

/// 10x12 Walker shell at 1200 km, 70°: dense enough that a metro almost
/// always sees a satellite.
lsn_topology dense_walker()
{
    constellation::walker_parameters p;
    p.altitude_m = 1200.0e3;
    p.inclination_rad = deg2rad(70.0);
    p.n_planes = 10;
    p.sats_per_plane = 12;
    p.phasing_f = 1;
    return build_walker_grid_topology(p);
}

scenario_sweep_options hour_grid()
{
    scenario_sweep_options o;
    o.duration_s = 3600.0;
    o.step_s = 600.0;
    o.min_elevation_rad = deg2rad(25.0);
    return o;
}

/// Fraction of grid steps at which `station` links to at least one
/// satellite in the unfailed snapshot.
double coverage_over_grid(const lsn_topology& topo, const ground_station& station,
                          const scenario_sweep_options& opts)
{
    const snapshot_builder builder(topo, {station}, astro::instant::j2000(),
                                   opts.min_elevation_rad, opts.max_isl_range_m);
    const auto offsets = sweep_offsets(opts.duration_s, opts.step_s);
    int covered = 0;
    for (const auto& positions : builder.positions_at_offsets(offsets)) {
        const auto snap = builder.snapshot_from_positions(positions);
        covered += !snap.arcs_of(snap.ground_node(0)).empty();
    }
    return static_cast<double>(covered) / static_cast<double>(offsets.size());
}

TEST(Scenario, DenseShellCoversEquatorialStation)
{
    const ground_station station{"Singapore", 1.35, 103.82};
    EXPECT_GT(coverage_over_grid(dense_walker(), station, hour_grid()), 0.95);
}

TEST(Scenario, PolarStationUncoveredByLowInclination)
{
    constellation::walker_parameters p;
    p.altitude_m = 560.0e3;
    p.inclination_rad = deg2rad(30.0);
    p.n_planes = 6;
    p.sats_per_plane = 8;
    const ground_station pole{"North Pole", 89.0, 0.0};
    EXPECT_EQ(coverage_over_grid(build_walker_grid_topology(p), pole, hour_grid()), 0.0);
}

TEST(Scenario, PairLatencyBounds)
{
    const auto topo = dense_walker();
    const auto stations = default_ground_stations();
    const auto opts = hour_grid();
    const snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                   opts.min_elevation_rad, opts.max_isl_range_m);
    const sweep_geometry geometry(builder, sweep_offsets(opts.duration_s, opts.step_s));
    const auto sweep = run_scenario_sweep_timeline(geometry, failure_timeline{});

    // New York (0) <-> London (3). One-way light time along the surface is
    // ~18.6 ms; any real route is longer, and a sane LEO route stays under
    // ~150 ms.
    EXPECT_GT(sweep.reachable(0, 3), 0.9);
    const double floor_ms = geo::surface_distance_m(40.71, -74.01, 51.51, -0.13) /
                            astro::speed_of_light_m_s * 1000.0;
    EXPECT_GT(sweep.mean_latency_ms(0, 3), floor_ms);
    EXPECT_LT(sweep.mean_latency_ms(0, 3), 150.0);
    EXPECT_GE(sweep.metrics.p95_latency_ms, sweep.metrics.mean_latency_ms * 0.5);

    // Every routed step beats the floor, over at least an up- and a downlink.
    for (const auto& step_positions : geometry.positions()) {
        const auto snap = builder.snapshot_from_positions(step_positions);
        const std::vector<int> london{snap.ground_node(3)};
        router routes(snap);
        routes.route(snap.ground_node(0), london);
        if (routes.latency_s(london[0]) == std::numeric_limits<double>::infinity()) continue;
        EXPECT_GT(routes.latency_s(london[0]) * 1000.0, floor_ms);
        EXPECT_GE(routes.path_to(london[0]).size(), 3u);
    }
}

TEST(Scenario, UnreachableWithoutIsls)
{
    // Remove ISLs: two far-apart stations cannot reach each other through a
    // single bent pipe. New York (0) <-> Sydney (10): no single satellite
    // sees both.
    lsn_topology topo = dense_walker();
    topo.links.clear();
    const auto sweep = sweep_scenario(topo, default_ground_stations(), {}, hour_grid());
    EXPECT_EQ(sweep.reachable(0, 10), 0.0);
}

} // namespace
} // namespace ssplane::lsn
