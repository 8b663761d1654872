// Beam assignment under hard limits: synthetic single-cell geometries pin
// the capacity/degradation/drop arithmetic and the drop reasons exactly;
// random shells cross-check the windowed visibility pass against brute
// force, and a real Walker shell checks the whole pass against
// thread-count/chunk-size perturbations.
#include "serve/beam_assignment.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "astro/frames.h"
#include "astro/time.h"
#include "constellation/walker.h"
#include "lsn/scenario.h"
#include "lsn/topology.h"
#include "obs/metrics.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ssplane::serve {
namespace {

session_cell make_cell(double lat_deg, double lon_deg, std::int64_t homed)
{
    session_cell cell;
    cell.latitude_deg = lat_deg;
    cell.longitude_deg = lon_deg;
    cell.site_ecef_m = astro::geodetic_to_ecef({lat_deg, lon_deg, 0.0});
    cell.sessions_homed = homed;
    return cell;
}

session_grid single_cell_grid(std::int64_t homed)
{
    session_grid grid;
    grid.cells.push_back(make_cell(10.0, 20.0, homed));
    grid.total_sessions = homed;
    grid.n_grid_cells = 1;
    return grid;
}

/// A satellite at `altitude_m` directly above the cell.
vec3 overhead(const session_cell& cell, double altitude_m = 550.0e3)
{
    const double r = cell.site_ecef_m.norm();
    return cell.site_ecef_m * ((r + altitude_m) / r);
}

serving_options roomy_options()
{
    serving_options options;
    options.n_sessions = 1; // unused by assign_beams, must just validate
    options.beams_per_satellite = 10000;
    options.beam_capacity_gbps = 1.0e6;
    options.max_users_per_beam = 1000000;
    options.satellite_capacity_gbps = 1.0e6;
    return options;
}

TEST(BeamAssignment, OverheadSatelliteServesEveryActiveSessionAtFullRate)
{
    const auto grid = single_cell_grid(400);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const auto t = astro::instant::j2000();
    const auto options = roomy_options();
    const std::int64_t active = active_sessions(grid.cells[0], t);
    ASSERT_GT(active, 0);

    const auto result = assign_beams(grid, sats, {}, t, options);
    EXPECT_EQ(result.sessions_active, active);
    EXPECT_EQ(result.sessions_dropped, 0);
    EXPECT_EQ(result.sessions_degraded, 0);
    EXPECT_DOUBLE_EQ(result.served_fraction(), 1.0);
    EXPECT_NEAR(result.delivered_gbps,
                static_cast<double>(active) * options.session_rate_mbps / 1000.0,
                1e-9);
    EXPECT_DOUBLE_EQ(result.delivered_gbps, result.offered_gbps);
    EXPECT_EQ(result.beams_used, 1);
    EXPECT_EQ(result.satellites_serving, 1);
    std::int64_t grouped = 0;
    for (const auto& g : result.rate_groups) grouped += g.sessions;
    EXPECT_EQ(grouped, result.sessions_active);
    EXPECT_DOUBLE_EQ(session_rate_percentile(result.rate_groups, 1.0),
                     options.session_rate_mbps);
}

TEST(BeamAssignment, AntipodalSatelliteDropsEverything)
{
    const auto grid = single_cell_grid(400);
    const std::vector<vec3> sats{-overhead(grid.cells[0])};
    const auto t = astro::instant::j2000();
    const auto result = assign_beams(grid, sats, {}, t, roomy_options());
    ASSERT_GT(result.sessions_active, 0);
    EXPECT_EQ(result.sessions_dropped, result.sessions_active);
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 0.0);
    EXPECT_DOUBLE_EQ(result.served_fraction(), 0.0);
    EXPECT_EQ(result.beams_used, 0);
    ASSERT_EQ(result.rate_groups.size(), 1u);
    EXPECT_DOUBLE_EQ(result.rate_groups[0].rate_mbps, 0.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile(result.rate_groups, 99.0), 0.0);
}

TEST(BeamAssignment, FailedSatelliteServesNothing)
{
    const auto grid = single_cell_grid(400);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const std::vector<std::uint8_t> failed{1};
    const auto t = astro::instant::j2000();
    const auto result = assign_beams(grid, sats, failed, t, roomy_options());
    EXPECT_EQ(result.sessions_dropped, result.sessions_active);
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 0.0);
    EXPECT_EQ(result.satellites_serving, 0);
}

TEST(BeamAssignment, PerBeamUserLimitSplitsTheCellAcrossBeams)
{
    const auto grid = single_cell_grid(1000);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const auto t = astro::instant::j2000();
    auto options = roomy_options();
    options.max_users_per_beam = 100;
    const auto result = assign_beams(grid, sats, {}, t, options);
    ASSERT_GT(result.sessions_active, 0);
    EXPECT_EQ(result.sessions_dropped, 0);
    const std::int64_t expected_beams = (result.sessions_active + 99) / 100;
    EXPECT_EQ(result.beams_used, static_cast<int>(expected_beams));
    for (const auto& g : result.rate_groups) EXPECT_LE(g.sessions, 100);
}

TEST(BeamAssignment, BeamCapacityShortfallDegradesUsers)
{
    const auto grid = single_cell_grid(1000);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const auto t = astro::instant::j2000();
    auto options = roomy_options();
    // One beam must take everyone, but delivers only 0.5 Gbps against a
    // multi-Gbps offered load → per-session rate far below the 50%
    // degraded threshold.
    options.beam_capacity_gbps = 0.5;
    const auto result = assign_beams(grid, sats, {}, t, options);
    ASSERT_GT(result.sessions_active, 0);
    EXPECT_EQ(result.sessions_dropped, 0);
    EXPECT_EQ(result.sessions_degraded, result.sessions_active);
    EXPECT_DOUBLE_EQ(result.served_fraction(), 0.0);
    EXPECT_DOUBLE_EQ(result.delivered_gbps, 0.5);
}

TEST(BeamAssignment, SatelliteCapacityCapsDeliveryAcrossBeams)
{
    const auto grid = single_cell_grid(1000);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const auto t = astro::instant::j2000();
    auto options = roomy_options();
    options.max_users_per_beam = 100;
    options.beam_capacity_gbps = 2.0;       // each beam could deliver its 2 Gbps
    options.satellite_capacity_gbps = 3.0;  // but the satellite caps the sum
    const auto result = assign_beams(grid, sats, {}, t, options);
    EXPECT_LE(result.delivered_gbps, 3.0 + 1e-9);
    EXPECT_GT(result.sessions_degraded + result.sessions_dropped, 0);
}

TEST(BeamAssignment, LoadBalancesAcrossEquallyGoodSatellites)
{
    const auto grid = single_cell_grid(1000);
    const vec3 above = overhead(grid.cells[0]);
    const std::vector<vec3> sats{above, above};
    const auto t = astro::instant::j2000();
    auto options = roomy_options();
    options.max_users_per_beam = 100;
    options.beam_capacity_gbps = 2.0; // beams drain residual capacity visibly
    const auto result = assign_beams(grid, sats, {}, t, options);
    // Residual-capacity-first placement alternates between the twins, so
    // both end up serving (first pick breaks the tie toward index 0, the
    // second then sees more headroom on index 1).
    EXPECT_EQ(result.satellites_serving, 2);
    EXPECT_EQ(result.sessions_dropped, 0);
}

TEST(BeamAssignment, MaskSizeMismatchIsRejected)
{
    const auto grid = single_cell_grid(10);
    const std::vector<vec3> sats{overhead(grid.cells[0])};
    const std::vector<std::uint8_t> wrong{0, 0};
    EXPECT_THROW(
        assign_beams(grid, sats, wrong, astro::instant::j2000(), roomy_options()),
        contract_violation);
}

TEST(BeamAssignment, DropReasonsPartitionTheDroppedSessions)
{
#if defined(SSPLANE_OBS_DISABLED)
    GTEST_SKIP() << "drop counters compile away under -DSSPLANE_OBS=OFF";
#else
    // Six cells 60° of longitude apart on one parallel, so no satellite
    // sees two groups. Cell order is the packing order.
    //   nobody:    no satellite at all          -> no_visible
    //   dead:      only a failed one overhead   -> no_visible
    //   first/second/third: one shared two-beam satellite; the first two
    //              cells take its beams with capacity to spare -> no_beam
    //   crowd:     one satellite whose first beam uses up its capacity,
    //              leaving a beam but nothing to give -> no_capacity
    session_grid grid;
    grid.cells = {make_cell(10.0, -100.0, 500), make_cell(10.0, 140.0, 500),
                  make_cell(10.0, 20.0, 10),    make_cell(10.0, 21.0, 10),
                  make_cell(11.0, 20.0, 500),   make_cell(10.0, 80.0, 1000)};
    for (const auto& cell : grid.cells) grid.total_sessions += cell.sessions_homed;
    grid.n_grid_cells = grid.cells.size();
    const std::vector<vec3> sats{overhead(grid.cells[1]), overhead(grid.cells[2]),
                                 overhead(grid.cells[5])};
    const std::vector<std::uint8_t> failed{1, 0, 0};
    const auto t = astro::instant::j2000();
    std::vector<std::int64_t> active;
    for (const auto& cell : grid.cells) {
        active.push_back(active_sessions(cell, t));
        ASSERT_GT(active.back(), 0);
    }

    serving_options options = roomy_options();
    options.beams_per_satellite = 2;
    options.max_users_per_beam = 100;
    options.satellite_capacity_gbps = 1.0;
    ASSERT_LE(static_cast<double>(active[2] + active[3]) * options.session_rate_mbps,
              1000.0 * options.satellite_capacity_gbps);
    ASSERT_GT(active[5], options.max_users_per_beam);

    obs::registry::instance().reset();
    const auto result = assign_beams(grid, sats, failed, t, options);
    const auto counter = [](const char* name) {
        return static_cast<std::int64_t>(
            obs::registry::instance().get_counter(name).value());
    };
    EXPECT_EQ(counter("serve.drop.no_visible"), active[0] + active[1]);
    EXPECT_EQ(counter("serve.drop.no_beam"), active[4]);
    EXPECT_EQ(counter("serve.drop.no_capacity"),
              active[5] - options.max_users_per_beam);
    EXPECT_EQ(counter("serve.drop.no_visible") + counter("serve.drop.no_beam") +
                  counter("serve.drop.no_capacity"),
              result.sessions_dropped);
#endif
}

TEST(BeamAssignment, PercentileWalksTheSortedDistribution)
{
    const std::vector<session_rate_group> groups{
        {3.0, 80}, {1.0, 10}, {2.0, 10}};
    EXPECT_DOUBLE_EQ(session_rate_percentile(groups, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile(groups, 10.0), 1.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile(groups, 11.0), 2.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile(groups, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile(groups, 100.0), 3.0);
    EXPECT_DOUBLE_EQ(session_rate_percentile({}, 50.0), 0.0);
    EXPECT_THROW(session_rate_percentile(groups, 101.0), contract_violation);
}

// --- Real-shell cross-checks ----------------------------------------------

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

TEST(BeamAssignment, BucketedPrefilterMatchesBruteForceVisibility)
{
    const auto topo = small_walker();
    const lsn::snapshot_builder builder(topo, lsn::default_ground_stations(),
                                        astro::instant::j2000(),
                                        deg2rad(25.0));
    const std::vector<double> offsets{0.0};
    const auto positions = builder.positions_at_offsets(offsets);

    const demand::population_model population;
    serving_options sample_options;
    sample_options.n_sessions = 20000;
    sample_options.seed = 7;
    const auto grid = sample_session_grid(population, sample_options);

    auto options = roomy_options();
    const auto t = builder.epoch();
    const auto result = assign_beams(grid, positions[0], {}, t, options);

    // With effectively unlimited capacity the only reason to drop is "no
    // satellite above the mask" — so the dropped count must equal the
    // brute-force sum over cells with zero visible satellites, catching
    // both false negatives and false positives of the banded prefilter.
    std::int64_t invisible_active = 0;
    std::int64_t total_active = 0;
    for (const auto& cell : grid.cells) {
        const std::int64_t active = active_sessions(cell, t);
        total_active += active;
        bool visible = false;
        for (const vec3& sat : positions[0]) {
            if (astro::elevation_angle_rad(cell.site_ecef_m, sat) >=
                options.min_elevation_rad) {
                visible = true;
                break;
            }
        }
        if (!visible) invisible_active += active;
    }
    EXPECT_EQ(result.sessions_active, total_active);
    EXPECT_EQ(result.sessions_dropped, invisible_active);
}

TEST(BeamAssignment, WindowedVisibilityMatchesBruteForce)
{
    // Random Walker shells at random times, against cells spread over the
    // globe plus the hard places for a longitude window: cells within reach
    // of the ±180° seam on both sides and cells above 84° latitude, where
    // the window spans every longitude.
    rng draw(2024);
    for (int trial = 0; trial < 6; ++trial) {
        constellation::walker_parameters params;
        params.altitude_m = draw.uniform(400.0e3, 1400.0e3);
        params.inclination_rad = deg2rad(draw.uniform(30.0, 98.0));
        params.n_planes = static_cast<int>(draw.uniform_int(3, 12));
        params.sats_per_plane = static_cast<int>(draw.uniform_int(4, 20));
        params.phasing_f = static_cast<int>(draw.uniform_int(0, params.n_planes - 1));
        params.raan0_rad = draw.uniform(0.0, 2.0 * pi);
        const auto topo = lsn::build_walker_grid_topology(params);
        const lsn::snapshot_builder builder(topo, lsn::default_ground_stations(),
                                            astro::instant::j2000(), deg2rad(25.0));
        const std::vector<double> offsets{draw.uniform(0.0, 86400.0)};
        const auto positions = builder.positions_at_offsets(offsets);

        session_grid grid;
        for (int c = 0; c < 300; ++c)
            grid.cells.push_back(make_cell(draw.uniform(-89.9, 89.9),
                                           draw.uniform(-180.0, 180.0), 1));
        for (int c = 0; c < 60; ++c) {
            const double lat = draw.uniform(-70.0, 70.0);
            grid.cells.push_back(make_cell(lat, draw.uniform(170.0, 180.0), 1));
            grid.cells.push_back(make_cell(lat, draw.uniform(-180.0, -170.0), 1));
        }
        for (int c = 0; c < 40; ++c)
            grid.cells.push_back(make_cell((c % 2 == 0 ? 1.0 : -1.0) *
                                               draw.uniform(84.0, 90.0),
                                           draw.uniform(-180.0, 180.0), 1));
        grid.total_sessions = static_cast<std::int64_t>(grid.cells.size());
        grid.n_grid_cells = grid.cells.size();

        serving_options options = roomy_options();
        options.min_elevation_rad = deg2rad(draw.uniform(10.0, 40.0));
        const visibility_table table =
            discover_visibility(grid, positions[0], builder.epoch(), options);
        ASSERT_EQ(table.n_satellites, static_cast<int>(topo.satellites.size()));
        ASSERT_EQ(table.cell_begin.size(), grid.cells.size() + 1);
        for (std::size_t i = 0; i < grid.cells.size(); ++i) {
            std::vector<std::pair<int, double>> expected;
            for (std::size_t s = 0; s < positions[0].size(); ++s) {
                const double elevation = astro::elevation_angle_rad(
                    grid.cells[i].site_ecef_m, positions[0][s]);
                if (elevation >= options.min_elevation_rad)
                    expected.emplace_back(static_cast<int>(s), elevation);
            }
            std::vector<std::pair<int, double>> found;
            for (const visible_satellite& v : table.of(i))
                found.emplace_back(v.satellite, v.elevation_rad);
            std::sort(found.begin(), found.end());
            EXPECT_EQ(found, expected)
                << "trial " << trial << ", cell " << i << " at ("
                << grid.cells[i].latitude_deg << ", "
                << grid.cells[i].longitude_deg << ")";
        }
    }
}

TEST(BeamAssignment, BitIdenticalAcrossThreads)
{
    const auto topo = small_walker();
    const lsn::snapshot_builder builder(topo, lsn::default_ground_stations(),
                                        astro::instant::j2000(),
                                        deg2rad(25.0));
    const std::vector<double> offsets{0.0};
    const auto positions = builder.positions_at_offsets(offsets);

    const demand::population_model population;
    serving_options options; // default capacities: contention is real
    options.n_sessions = 50000;
    options.seed = 11;
    const auto grid = sample_session_grid(population, options);
    const auto t = builder.epoch();

    const auto reference = assign_beams(grid, positions[0], {}, t, options);
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        const auto result = assign_beams(grid, positions[0], {}, t, options);
        EXPECT_EQ(result.sessions_active, reference.sessions_active);
        EXPECT_EQ(result.sessions_dropped, reference.sessions_dropped);
        EXPECT_EQ(result.sessions_degraded, reference.sessions_degraded);
        EXPECT_EQ(result.delivered_gbps, reference.delivered_gbps);
        EXPECT_EQ(result.beams_used, reference.beams_used);
        EXPECT_EQ(result.satellites_serving, reference.satellites_serving);
        ASSERT_EQ(result.rate_groups.size(), reference.rate_groups.size());
        for (std::size_t g = 0; g < result.rate_groups.size(); ++g) {
            EXPECT_EQ(result.rate_groups[g].rate_mbps,
                      reference.rate_groups[g].rate_mbps);
            EXPECT_EQ(result.rate_groups[g].sessions,
                      reference.rate_groups[g].sessions);
        }
    }
    set_thread_count(0);
}

} // namespace
} // namespace ssplane::serve
