#include "spectral/percolation.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../lsn/capped_topology.h"
#include "obs/metrics.h"
#include "spectral/laplacian.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::spectral {
namespace {

using links_t = std::vector<lsn::isl_link>;

constellation::walker_parameters small_walker(int planes, int sats)
{
    constellation::walker_parameters p;
    p.altitude_m = 550.0e3;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = planes;
    p.sats_per_plane = sats;
    p.phasing_f = 1;
    return p;
}

TEST(Percolation, HandComputedClustersAndSusceptibility)
{
    // Triangle {0,1,2}, edge {3,4}, isolated 5.
    const percolation_metrics m =
        analyze_adjacency(alive_adjacency(6, links_t{{0, 1}, {0, 2}, {1, 2}, {3, 4}}));
    EXPECT_EQ(m.n_alive, 6);
    EXPECT_EQ(m.n_components, 3);
    EXPECT_DOUBLE_EQ(m.giant_component_fraction, 0.5);
    EXPECT_DOUBLE_EQ(m.giant_alive_fraction, 0.5);
    // Finite clusters: {3,4} and {5} -> (2^2 + 1^2) / 6.
    EXPECT_DOUBLE_EQ(m.susceptibility, 5.0 / 6.0);
    // Only the triangle contributes triplets, and all 3 are closed.
    EXPECT_DOUBLE_EQ(m.clustering_coefficient, 1.0);
    // Union-find found three components, so λ₂ = 0 exactly and no solve ran.
    EXPECT_EQ(m.lambda2, 0.0);
    EXPECT_EQ(m.lanczos_iterations, 0);
}

TEST(Percolation, SquareWithDiagonalClustering)
{
    // 4-cycle 0-1-2-3 with diagonal 0-2: 2 triangles, 8 triplets.
    const percolation_metrics m = analyze_adjacency(
        alive_adjacency(4, links_t{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}));
    EXPECT_EQ(m.n_components, 1);
    EXPECT_DOUBLE_EQ(m.giant_component_fraction, 1.0);
    EXPECT_DOUBLE_EQ(m.susceptibility, 0.0);
    EXPECT_DOUBLE_EQ(m.clustering_coefficient, 6.0 / 8.0);
    EXPECT_GT(m.lambda2, 0.0);
}

TEST(Percolation, FailureMaskCompactsToAliveSubgraph)
{
    // Triangle {0,1,2} with node 2 failed, edge {3,4}, isolated 5.
    const std::vector<std::uint8_t> failed = {0, 0, 1, 0, 0, 0};
    const percolation_metrics m = analyze_adjacency(
        alive_adjacency(6, links_t{{0, 1}, {0, 2}, {1, 2}, {3, 4}}, failed));
    EXPECT_EQ(m.n_alive, 5);
    // Alive clusters: {0,1}, {3,4}, {5}.
    EXPECT_EQ(m.n_components, 3);
    EXPECT_DOUBLE_EQ(m.giant_component_fraction, 2.0 / 6.0);
    EXPECT_DOUBLE_EQ(m.giant_alive_fraction, 2.0 / 5.0);
    // Ties for the giant exclude exactly one instance: (2^2 + 1^2) / 6.
    EXPECT_DOUBLE_EQ(m.susceptibility, 5.0 / 6.0);
    EXPECT_DOUBLE_EQ(m.clustering_coefficient, 0.0);
}

TEST(Percolation, FailedSatellitesLoseTheirLinksAndBadMasksThrow)
{
    // Satellite 0 fails: its links to 1 and 2 drop out with its row, and
    // survivors 0, 1, 2 are satellites 1, 2, 3 on the path 1-2-3.
    const links_t links{{0, 1}, {1, 2}, {2, 0}, {2, 3}};
    const std::vector<std::uint8_t> failed = {1, 0, 0, 0};
    const alive_graph graph = alive_adjacency(4, links, failed);
    EXPECT_EQ(graph.n_satellites, 4);
    EXPECT_EQ(graph.n_alive(), 3);
    EXPECT_EQ(graph.row_begin, (std::vector<int>{0, 1, 3, 4}));
    EXPECT_EQ(graph.neighbors, (std::vector<int>{1, 0, 2, 1}));
    const percolation_metrics m = analyze_adjacency(graph);
    EXPECT_EQ(m.n_alive, 3);
    EXPECT_EQ(m.n_components, 1);
    EXPECT_DOUBLE_EQ(m.giant_component_fraction, 3.0 / 4.0);
    EXPECT_DOUBLE_EQ(m.giant_alive_fraction, 1.0);

    // A mask of the wrong size and an endpoint out of range still throw.
    const std::vector<std::uint8_t> short_mask = {1};
    EXPECT_THROW(alive_adjacency(4, links, short_mask), contract_violation);
    EXPECT_THROW(alive_adjacency(3, links), contract_violation);
    const lsn::lsn_topology topo = lsn::build_walker_grid_topology(small_walker(3, 4));
    EXPECT_THROW(analyze_percolation(topo, short_mask), contract_violation);
}

TEST(Percolation, EmptyAndFullyFailedGraphs)
{
    EXPECT_EQ(analyze_adjacency({}).n_alive, 0);
    const std::vector<std::uint8_t> all_failed = {1, 1};
    const percolation_metrics m =
        analyze_adjacency(alive_adjacency(2, links_t{{0, 1}}, all_failed));
    EXPECT_EQ(m.n_alive, 0);
    EXPECT_EQ(m.n_components, 0);
    EXPECT_DOUBLE_EQ(m.giant_component_fraction, 0.0);
    EXPECT_DOUBLE_EQ(m.giant_alive_fraction, 0.0);
}

TEST(Percolation, TopologyOverloadMatchesAdjacencyCore)
{
    const lsn::lsn_topology topo =
        lsn::build_walker_grid_topology(small_walker(5, 6));
    std::vector<std::uint8_t> failed(topo.satellites.size(), 0);
    failed[7] = failed[21] = 1;
    const percolation_metrics via_topology = analyze_percolation(topo, failed);
    const percolation_metrics via_adjacency =
        analyze_adjacency(alive_adjacency(topo, failed));
    EXPECT_DOUBLE_EQ(via_topology.lambda2, via_adjacency.lambda2);
    EXPECT_DOUBLE_EQ(via_topology.susceptibility, via_adjacency.susceptibility);
    EXPECT_EQ(via_topology.n_components, via_adjacency.n_components);
}

TEST(Percolation, GiantFractionMatchesTheSurvivabilityEngine)
{
    // Both count the largest alive ISL component over every satellite, so
    // lsn::giant_component_fraction must agree exactly on masked snapshots:
    // 40% loss leaves this 6x6 grid connected, 60% fragments it.
    const lsn::lsn_topology topo =
        lsn::build_walker_grid_topology(small_walker(6, 6));
    const lsn::snapshot_builder builder(topo, {}, astro::instant::j2000(),
                                        deg2rad(30.0), 1.0e8);
    const std::vector<double> epoch_only{0.0};
    const auto positions = builder.positions_at_offsets(epoch_only);
    for (const double fraction : {0.4, 0.6})
        for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
            lsn::failure_scenario loss;
            loss.mode = lsn::failure_mode::random_loss;
            loss.loss_fraction = fraction;
            loss.seed = seed;
            const auto failed = lsn::sample_failures(topo, loss);
            const lsn::network_snapshot snap =
                builder.snapshot_from_positions(positions[0], failed);
            const percolation_metrics m = analyze_percolation(snap, failed);
            EXPECT_EQ(m.n_components > 1, fraction > 0.5) << "seed " << seed;
            EXPECT_EQ(m.giant_component_fraction,
                      lsn::giant_component_fraction(snap, failed))
                << "fraction " << fraction << " seed " << seed;
        }
}

TEST(MaskingThreshold, EscalatesUntilCollapseOnRingTopology)
{
    // Degree-2 serpentine ring: two destroyed planes cut it, so the
    // plane-attack threshold must come early.
    const lsn::lsn_topology topo =
        lsn::build_walker_capped_topology(small_walker(8, 4), 2);
    masking_threshold_options options;
    options.fraction_step = 0.125; // one plane per step on 8 planes
    options.max_fraction = 0.75;
    options.n_seeds = 3;
    const masking_threshold_result result = find_masking_threshold(topo, options);
    ASSERT_FALSE(result.steps.empty());
    EXPECT_DOUBLE_EQ(result.steps.front().fraction, 0.0);
    EXPECT_DOUBLE_EQ(result.steps.front().mean_giant_alive_fraction, 1.0);
    EXPECT_GT(result.threshold_fraction, 0.0);
    EXPECT_LE(result.threshold_fraction, 0.75);
    // stop_at_collapse trims the trace at the collapse step.
    EXPECT_DOUBLE_EQ(result.steps.back().fraction, result.threshold_fraction);

    // The full curve reaches max_fraction and reports the same threshold.
    masking_threshold_options full = options;
    full.stop_at_collapse = false;
    const masking_threshold_result curve = find_masking_threshold(topo, full);
    EXPECT_DOUBLE_EQ(curve.threshold_fraction, result.threshold_fraction);
    EXPECT_EQ(curve.steps.size(), 7u); // fractions 0, 0.125, ..., 0.75
    EXPECT_GT(curve.steps.size(), result.steps.size());
    for (std::size_t i = 0; i + 1 < curve.steps.size(); ++i)
        EXPECT_LT(curve.steps[i].fraction, curve.steps[i + 1].fraction);
}

TEST(MaskingThreshold, RobustGraphUnderMildRandomLossNeverCollapses)
{
    const lsn::lsn_topology topo =
        lsn::build_walker_grid_topology(small_walker(6, 6));
    masking_threshold_options options;
    options.mode = lsn::failure_mode::random_loss;
    options.fraction_step = 0.05;
    options.max_fraction = 0.1; // +Grid shrugs off 10% random loss
    options.gcc_collapse_ratio = 0.3;
    const masking_threshold_result result = find_masking_threshold(topo, options);
    EXPECT_DOUBLE_EQ(result.threshold_fraction, -1.0);
    EXPECT_EQ(result.steps.size(), 3u);
}

TEST(MaskingThreshold, DeterministicInSeed)
{
    const lsn::lsn_topology topo =
        lsn::build_walker_capped_topology(small_walker(8, 4), 3);
    masking_threshold_options options;
    options.fraction_step = 0.25;
    options.max_fraction = 0.5;
    options.n_seeds = 2;
    options.stop_at_collapse = false;
    const masking_threshold_result a = find_masking_threshold(topo, options);
    const masking_threshold_result b = find_masking_threshold(topo, options);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    EXPECT_DOUBLE_EQ(a.threshold_fraction, b.threshold_fraction);
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.steps[i].mean_giant_alive_fraction,
                         b.steps[i].mean_giant_alive_fraction);
        EXPECT_DOUBLE_EQ(a.steps[i].mean_lambda2, b.steps[i].mean_lambda2);
        EXPECT_DOUBLE_EQ(a.steps[i].mean_susceptibility,
                         b.steps[i].mean_susceptibility);
    }
}

TEST(MaskingThreshold, ValidateRejectsDegenerateOptions)
{
    masking_threshold_options timeline_mode;
    timeline_mode.mode = lsn::failure_mode::kessler_cascade;
    EXPECT_THROW(validate(timeline_mode), contract_violation);
    masking_threshold_options none_mode;
    none_mode.mode = lsn::failure_mode::none;
    EXPECT_THROW(validate(none_mode), contract_violation);
    masking_threshold_options bad_step;
    bad_step.fraction_step = 0.0;
    EXPECT_THROW(validate(bad_step), contract_violation);
    masking_threshold_options bad_max;
    bad_max.max_fraction = 1.5;
    EXPECT_THROW(validate(bad_max), contract_violation);
    masking_threshold_options bad_seeds;
    bad_seeds.n_seeds = 0;
    EXPECT_THROW(validate(bad_seeds), contract_violation);
    masking_threshold_options bad_ratio;
    bad_ratio.gcc_collapse_ratio = 0.0;
    EXPECT_THROW(validate(bad_ratio), contract_violation);
    masking_threshold_options bad_eps;
    bad_eps.lambda2_epsilon = -1.0;
    EXPECT_THROW(validate(bad_eps), contract_violation);
    masking_threshold_options bad_lanczos;
    bad_lanczos.metrics.lanczos.max_iterations = 0;
    EXPECT_THROW(validate(bad_lanczos), contract_violation);
    EXPECT_NO_THROW(validate(masking_threshold_options{}));
    EXPECT_NO_THROW(validate(percolation_options{}));
}

TEST(PercolationSweep, TimelineTrajectoriesAndThreadInvariance)
{
    const lsn::lsn_topology topo =
        lsn::build_walker_grid_topology(small_walker(5, 5));
    const auto epoch = astro::instant::j2000();
    // Generous ISL range: a 5x5 shell's ring spacing exceeds the default
    // gate, and this test is about the timeline, not the geometry.
    const std::vector<double> offsets = lsn::sweep_offsets(7200.0, 1800.0);
    const lsn::sweep_geometry geometry(
        lsn::snapshot_builder(topo, {}, epoch, deg2rad(30.0), 1.0e8), offsets);

    // Escalating timeline: one more plane of damage every step.
    lsn::failure_timeline timeline;
    timeline.n_satellites = 25;
    timeline.n_steps = static_cast<int>(offsets.size());
    timeline.masks.assign(
        static_cast<std::size_t>(timeline.n_steps) * 25u, 0);
    for (int step = 0; step < timeline.n_steps; ++step)
        for (int sat = 0; sat < 5 * step && sat < 25; ++sat)
            timeline.masks[static_cast<std::size_t>(step) * 25u +
                           static_cast<std::size_t>(sat)] = 1;

    const percolation_sweep_result serial = [&] {
        set_thread_count(1);
        return run_percolation_sweep_timeline(geometry, timeline);
    }();
    ASSERT_EQ(serial.step_lambda2.size(), offsets.size());
    ASSERT_EQ(serial.step_giant_fraction.size(), offsets.size());
    // Step 0 is unfailed; escalating damage shrinks the giant component.
    EXPECT_DOUBLE_EQ(serial.step_giant_fraction[0], 1.0);
    EXPECT_LT(serial.step_giant_fraction.back(), serial.step_giant_fraction[0]);
    EXPECT_GE(serial.lambda2_mean, serial.lambda2_min);
    EXPECT_GE(serial.susceptibility_max, serial.susceptibility_mean);

    for (const unsigned threads : {2u, 4u}) {
        set_thread_count(threads);
        const percolation_sweep_result parallel =
            run_percolation_sweep_timeline(geometry, timeline);
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            EXPECT_DOUBLE_EQ(parallel.step_lambda2[i], serial.step_lambda2[i]);
            EXPECT_DOUBLE_EQ(parallel.step_giant_fraction[i],
                             serial.step_giant_fraction[i]);
            EXPECT_DOUBLE_EQ(parallel.step_susceptibility[i],
                             serial.step_susceptibility[i]);
            EXPECT_DOUBLE_EQ(parallel.step_clustering[i],
                             serial.step_clustering[i]);
        }
        EXPECT_EQ(parallel.step_lambda2_unconverged, serial.step_lambda2_unconverged);
        EXPECT_DOUBLE_EQ(parallel.lambda2_mean, serial.lambda2_mean);
        EXPECT_DOUBLE_EQ(parallel.giant_fraction_min, serial.giant_fraction_min);
    }
    set_thread_count(0);

    // Every step is exact at the default cap; a cap of 2 Lanczos steps
    // leaves every connected step approximate, and the sweep counts them.
    EXPECT_EQ(serial.lambda2_unconverged_steps, 0);
    percolation_options capped;
    capped.lanczos.max_iterations = 2;
    const percolation_sweep_result rough =
        run_percolation_sweep_timeline(geometry, timeline, capped);
    int connected = 0;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        const bool is_connected = serial.step_susceptibility[i] == 0.0;
        connected += is_connected ? 1 : 0;
        EXPECT_EQ(rough.step_lambda2_unconverged[i], is_connected ? 1 : 0) << i;
    }
    EXPECT_GT(connected, 0);
    EXPECT_EQ(rough.lambda2_unconverged_steps, connected);
}

TEST(PercolationSweep, ReusedGraphsMatchPerStepAnalysis)
{
    // Masks repeat in the pattern A A B A C C B A over eight half-hour
    // steps. Under a generous ISL range every repeated mask repeats its
    // graph; under a tight range gate the geometry can also change a graph
    // between steps of one mask; at a 1 m range every graph is edgeless,
    // so only the survivor count tells the steps apart. Each step must
    // equal `analyze_percolation` of its own snapshot, bit for bit, and the
    // sweep must analyze each distinct survivor graph once.
    const lsn::lsn_topology topo = lsn::build_walker_grid_topology(small_walker(6, 6));
    const int n = 36;
    const auto epoch = astro::instant::j2000();
    const std::vector<double> offsets = lsn::sweep_offsets(4.0 * 3600.0, 1800.0);
    const std::vector<int> pattern{0, 0, 1, 0, 2, 2, 1, 0};
    ASSERT_EQ(offsets.size(), pattern.size());
    lsn::failure_timeline timeline;
    timeline.n_satellites = n;
    timeline.n_steps = static_cast<int>(pattern.size());
    for (const int mask : pattern)
        for (int sat = 0; sat < n; ++sat)
            timeline.masks.push_back(
                static_cast<std::uint8_t>(mask == 1 ? sat % 5 == 0
                                                    : mask == 2 && sat < 12));

    for (const double isl_range_m : {1.0e8, 5.0e6, 1.0}) {
        const lsn::sweep_geometry geometry(
            lsn::snapshot_builder(topo, {}, epoch, deg2rad(30.0), isl_range_m), offsets);
        const auto& builder = geometry.builder();
        const auto& positions = geometry.positions();
        std::vector<alive_graph> distinct;
        std::vector<percolation_metrics> expected;
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            const auto mask = timeline.step(static_cast<int>(i));
            const auto snapshot = builder.snapshot_from_positions(positions[i], mask);
            expected.push_back(analyze_percolation(snapshot, mask));
            alive_graph graph = alive_adjacency(snapshot, mask);
            if (std::find(distinct.begin(), distinct.end(), graph) == distinct.end())
                distinct.push_back(std::move(graph));
        }
        // Three masks; the tight gate also changes graphs under one mask.
        if (isl_range_m == 5.0e6)
            ASSERT_GT(distinct.size(), 3u);
        else
            ASSERT_EQ(distinct.size(), 3u);
        ASSERT_LT(distinct.size(), offsets.size());

        for (const unsigned threads : {1u, 4u}) {
            set_thread_count(threads);
            obs::registry::instance().reset();
            const percolation_sweep_result r =
                run_percolation_sweep_timeline(geometry, timeline);
#ifndef SSPLANE_OBS_DISABLED
            EXPECT_EQ(obs::registry::instance()
                          .get_counter("spectral.percolate.reused")
                          .value(),
                      offsets.size() - distinct.size());
#endif
            for (std::size_t i = 0; i < offsets.size(); ++i) {
                SCOPED_TRACE("range " + std::to_string(isl_range_m) + ", step " +
                             std::to_string(i));
                EXPECT_EQ(r.step_lambda2[i], expected[i].lambda2);
                EXPECT_EQ(r.step_giant_fraction[i], expected[i].giant_component_fraction);
                EXPECT_EQ(r.step_susceptibility[i], expected[i].susceptibility);
                EXPECT_EQ(r.step_clustering[i], expected[i].clustering_coefficient);
                EXPECT_EQ(r.step_lambda2_unconverged[i] != 0,
                          !expected[i].lambda2_converged);
            }
        }
    }
    set_thread_count(0);
}

} // namespace
} // namespace ssplane::spectral
