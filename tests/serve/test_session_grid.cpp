// The session sampler's contract: sessions land in proportion to
// population mass, memory stays O(active cells), and the draw is a pure
// function of (seed, cell) — bit-identical for any thread count and any
// chunk size.
#include "serve/session_grid.h"

#include <cmath>
#include <cstdlib>

#include <gtest/gtest.h>

#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::serve {
namespace {

const demand::population_model& test_population()
{
    static const demand::population_model model;
    return model;
}

serving_options small_options(std::int64_t n_sessions = 200000)
{
    serving_options options;
    options.n_sessions = n_sessions;
    options.seed = 42;
    return options;
}

TEST(SessionGrid, TotalSessionsTracksTarget)
{
    const auto grid = sample_session_grid(test_population(), small_options());
    // Stochastic rounding: the realized total differs from the target by a
    // sum of Bernoulli corrections, one per populated cell — O(√cells),
    // far inside 1% of 200k sessions.
    EXPECT_NEAR(static_cast<double>(grid.total_sessions), 200000.0, 2000.0);

    std::int64_t sum = 0;
    for (const auto& cell : grid.cells) {
        EXPECT_GT(cell.sessions_homed, 0);
        sum += cell.sessions_homed;
    }
    EXPECT_EQ(sum, grid.total_sessions);
}

TEST(SessionGrid, MemoryIsActiveCellsNotUsers)
{
    // 100× more sessions must not mean more cells: the aggregate stays
    // bounded by the populated subset of the lat/lon grid.
    const auto small = sample_session_grid(test_population(), small_options(100000));
    const auto large =
        sample_session_grid(test_population(), small_options(10000000));
    EXPECT_EQ(small.n_grid_cells, large.n_grid_cells);
    EXPECT_LT(large.cells.size(), large.n_grid_cells);
    // Cell records, not user records: 10M sessions fit in the same O(cells)
    // footprint (populated cells can only grow toward the populated-cell
    // ceiling, never toward the session count).
    EXPECT_LT(large.cells.size(), 200000u);
    EXPECT_GE(large.cells.size(), small.cells.size());
}

TEST(SessionGrid, SitesAndOrderingAreWellFormed)
{
    const auto grid = sample_session_grid(test_population(), small_options());
    ASSERT_FALSE(grid.cells.empty());
    for (const auto& cell : grid.cells) {
        EXPECT_GE(cell.latitude_deg, -90.0);
        EXPECT_LE(cell.latitude_deg, 90.0);
        // Ground sites sit on the ellipsoid surface: ~6357–6378 km radius.
        const double r = cell.site_ecef_m.norm();
        EXPECT_GT(r, 6.3e6);
        EXPECT_LT(r, 6.4e6);
    }
    // Row-major grid order (south to north): latitudes are non-decreasing.
    for (std::size_t i = 0; i + 1 < grid.cells.size(); ++i)
        EXPECT_LE(grid.cells[i].latitude_deg, grid.cells[i + 1].latitude_deg);
}

TEST(SessionGrid, BitIdenticalAcrossThreads)
{
    const auto reference = sample_session_grid(test_population(), small_options());
    for (const unsigned threads : {1u, 2u, 4u}) {
        set_thread_count(threads);
        const auto grid = sample_session_grid(test_population(), small_options());
        ASSERT_EQ(grid.cells.size(), reference.cells.size())
            << "threads " << threads;
        EXPECT_EQ(grid.total_sessions, reference.total_sessions);
        for (std::size_t i = 0; i < grid.cells.size(); ++i) {
            EXPECT_EQ(grid.cells[i].sessions_homed,
                      reference.cells[i].sessions_homed);
            EXPECT_EQ(grid.cells[i].latitude_deg,
                      reference.cells[i].latitude_deg);
            EXPECT_EQ(grid.cells[i].longitude_deg,
                      reference.cells[i].longitude_deg);
            EXPECT_EQ(grid.cells[i].site_ecef_m, reference.cells[i].site_ecef_m);
        }
    }
    set_thread_count(0);
}

TEST(SessionGrid, SeedMovesOnlyTheStochasticRounding)
{
    serving_options reseeded = small_options();
    reseeded.seed = 43;
    const auto a = sample_session_grid(test_population(), small_options());
    const auto b = sample_session_grid(test_population(), reseeded);
    // Different rounding draws, same expected mass.
    EXPECT_NEAR(static_cast<double>(a.total_sessions),
                static_cast<double>(b.total_sessions), 2000.0);
    std::int64_t max_delta = 0;
    // Counts per cell may shift by at most the one Bernoulli unit.
    std::size_t ia = 0, ib = 0;
    std::int64_t differing = 0;
    while (ia < a.cells.size() && ib < b.cells.size()) {
        const auto& ca = a.cells[ia];
        const auto& cb = b.cells[ib];
        if (ca.latitude_deg == cb.latitude_deg &&
            ca.longitude_deg == cb.longitude_deg) {
            const std::int64_t d = std::abs(ca.sessions_homed - cb.sessions_homed);
            max_delta = std::max(max_delta, d);
            if (d != 0) ++differing;
            ++ia;
            ++ib;
        } else if (ca.latitude_deg < cb.latitude_deg ||
                   (ca.latitude_deg == cb.latitude_deg &&
                    ca.longitude_deg < cb.longitude_deg)) {
            ++ia;
        } else {
            ++ib;
        }
    }
    EXPECT_LE(max_delta, 1);
    EXPECT_GT(differing, 0); // the reseed did change some draws
}

TEST(SessionGrid, ActiveSessionsFollowDiurnalShape)
{
    session_cell cell;
    cell.latitude_deg = 0.0;
    cell.longitude_deg = 0.0;
    cell.sessions_homed = 10000;
    const auto epoch = astro::instant::j2000();
    std::int64_t peak = 0;
    std::int64_t trough = cell.sessions_homed;
    for (int hour = 0; hour < 24; ++hour) {
        const std::int64_t active =
            active_sessions(cell, epoch.plus_seconds(hour * 3600.0));
        EXPECT_GE(active, 0);
        EXPECT_LE(active, cell.sessions_homed);
        peak = std::max(peak, active);
        trough = std::min(trough, active);
    }
    // The diurnal peak wakes (nearly) everyone; the pre-dawn trough is
    // roughly half the median — far below the peak.
    EXPECT_GT(peak, cell.sessions_homed * 9 / 10);
    EXPECT_LT(trough, peak * 2 / 3);
}

// --- serve::validate guard per rejected field ------------------------------

template <class Mutate>
void expect_rejected(Mutate&& mutate)
{
    serving_options options;
    mutate(options);
    EXPECT_THROW(validate(options), contract_violation);
}

TEST(ServingOptionsValidate, RejectsEachDegenerateField)
{
    EXPECT_NO_THROW(validate(serving_options{}));
    expect_rejected([](serving_options& o) { o.n_sessions = 0; });
    expect_rejected([](serving_options& o) { o.session_rate_mbps = 0.0; });
    expect_rejected([](serving_options& o) { o.session_rate_mbps = -1.0; });
    expect_rejected([](serving_options& o) { o.beams_per_satellite = 0; });
    expect_rejected([](serving_options& o) { o.beam_capacity_gbps = 0.0; });
    expect_rejected([](serving_options& o) { o.max_users_per_beam = 0; });
    expect_rejected([](serving_options& o) { o.satellite_capacity_gbps = 0.0; });
    expect_rejected([](serving_options& o) { o.min_elevation_rad = -0.1; });
    expect_rejected([](serving_options& o) { o.min_elevation_rad = 1.6; });
    expect_rejected([](serving_options& o) { o.degraded_rate_fraction = 0.0; });
    expect_rejected([](serving_options& o) { o.degraded_rate_fraction = 1.5; });
    expect_rejected([](serving_options& o) { o.restore_served_fraction = 0.0; });
    expect_rejected([](serving_options& o) { o.restore_served_fraction = 1.5; });
}

TEST(ServingOptionsValidate, SamplerRejectsDegenerateKnobsBeforeWork)
{
    serving_options options;
    options.n_sessions = 0;
    EXPECT_THROW(sample_session_grid(test_population(), options),
                 contract_violation);
}

} // namespace
} // namespace ssplane::serve
