#include "lsn/simulator.h"

#include <gtest/gtest.h>

#include "util/expects.h"

#include "astro/constants.h"
#include "geo/geodesy.h"
#include "util/angles.h"

namespace ssplane::lsn {
namespace {

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

scenario_sweep_options quick_options()
{
    scenario_sweep_options o;
    o.duration_s = 3600.0;
    o.step_s = 600.0;
    o.min_elevation_rad = deg2rad(25.0);
    return o;
}

TEST(Simulator, DenseShellCoversEquatorialStation)
{
    const auto topo = dense_walker();
    const ground_station station{"Singapore", 1.35, 103.82};
    const double frac =
        coverage_fraction(topo, station, astro::instant::j2000(), quick_options());
    EXPECT_GT(frac, 0.95);
}

TEST(Simulator, PolarStationUncoveredByLowInclination)
{
    constellation::walker_parameters p;
    p.altitude_m = 560.0e3;
    p.inclination_rad = deg2rad(30.0);
    p.n_planes = 6;
    p.sats_per_plane = 8;
    const auto topo = build_walker_grid_topology(p);
    const ground_station pole{"North Pole", 89.0, 0.0};
    const double frac =
        coverage_fraction(topo, pole, astro::instant::j2000(), quick_options());
    EXPECT_EQ(frac, 0.0);
}

TEST(Simulator, PairLatencyBounds)
{
    const auto topo = dense_walker();
    const auto stations = default_ground_stations();
    // New York (0) <-> London (3).
    const auto stats = simulate_pair_latency(topo, stations, 0, 3,
                                             astro::instant::j2000(), quick_options());
    EXPECT_GT(stats.reachable_fraction, 0.9);
    // One-way light time along the surface NY-London is ~18.6 ms; any real
    // route is longer, and a sane LEO route stays under ~150 ms.
    const double floor_ms = geo::surface_distance_m(40.71, -74.01, 51.51, -0.13) /
                            astro::speed_of_light_m_s * 1000.0;
    EXPECT_GT(stats.min_latency_ms, floor_ms);
    EXPECT_LT(stats.mean_latency_ms, 150.0);
    EXPECT_GE(stats.p95_latency_ms, stats.mean_latency_ms * 0.5);
    EXPECT_GE(stats.max_latency_ms, stats.min_latency_ms);
    EXPECT_GE(stats.mean_hops, 2.0); // up + down at least
}

TEST(Simulator, UnreachableWithoutIsls)
{
    // Remove ISLs: two far-apart stations cannot reach each other through a
    // single bent pipe.
    lsn_topology topo = dense_walker();
    topo.links.clear();
    const auto stations = default_ground_stations();
    // New York (0) <-> Sydney (10): no single satellite sees both.
    const auto stats = simulate_pair_latency(topo, stations, 0, 10,
                                             astro::instant::j2000(), quick_options());
    EXPECT_EQ(stats.reachable_fraction, 0.0);
}

TEST(Simulator, InvalidStationIndicesRejected)
{
    const auto topo = dense_walker();
    const auto stations = default_ground_stations();
    EXPECT_THROW(simulate_pair_latency(topo, stations, -1, 2, astro::instant::j2000(),
                                       quick_options()),
                 contract_violation);
    EXPECT_THROW(simulate_pair_latency(topo, stations, 0, 99, astro::instant::j2000(),
                                       quick_options()),
                 contract_violation);
}

} // namespace
} // namespace ssplane::lsn
