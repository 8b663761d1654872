#include "serve/session_grid.h"

#include <cmath>

#include "astro/frames.h"
#include "demand/diurnal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ssplane::serve {

namespace {

// Sub-stream purpose of `rng::split(seed, purpose, cell)` for the per-cell
// stochastic rounding. Tree-wide unique (detlint split-purpose-collision):
// lsn's cascade/storm streams are 1 and 2, spectral's Lanczos start vector
// is 3 and its masking draws are 4.
constexpr std::uint64_t purpose_session_sampler = 5;

} // namespace

void validate(const serving_options& options)
{
    expects(options.n_sessions >= 1, "serving needs at least one session");
    expects(std::isfinite(options.session_rate_mbps) &&
                options.session_rate_mbps > 0.0,
            "session_rate_mbps must be positive and finite");
    expects(options.beams_per_satellite >= 1,
            "beams_per_satellite must be at least 1");
    expects(std::isfinite(options.beam_capacity_gbps) &&
                options.beam_capacity_gbps > 0.0,
            "beam_capacity_gbps must be positive and finite");
    expects(options.max_users_per_beam >= 1,
            "max_users_per_beam must be at least 1");
    expects(std::isfinite(options.satellite_capacity_gbps) &&
                options.satellite_capacity_gbps > 0.0,
            "satellite_capacity_gbps must be positive and finite");
    expects(options.min_elevation_rad >= 0.0 &&
                options.min_elevation_rad < 1.5707963267948966,
            "min_elevation_rad must lie in [0, pi/2)");
    expects(options.degraded_rate_fraction > 0.0 &&
                options.degraded_rate_fraction <= 1.0,
            "degraded_rate_fraction must lie in (0, 1]");
    expects(options.restore_served_fraction > 0.0 &&
                options.restore_served_fraction <= 1.0,
            "restore_served_fraction must lie in (0, 1]");
}

session_grid sample_session_grid(const demand::population_model& population,
                                 const serving_options& options)
{
    OBS_SPAN("serve.sample_grid");
    validate(options);
    const double total_population = population.total_population();
    expects(total_population > 0.0,
            "population model carries no mass to sample sessions from");

    const geo::lat_lon_grid& grid = population.density();
    const std::size_t n_lon = grid.n_lon();
    const std::size_t n_cells = grid.n_lat() * n_lon;
    const double scale =
        static_cast<double>(options.n_sessions) / total_population;

    // Phase 1 — per-cell counts into a flat scratch array: O(grid cells)
    // memory no matter how many sessions are drawn. Each cell's count is a
    // pure function of (seed, cell index), so the parallel chunking is
    // free to be anything.
    std::vector<std::int64_t> counts(n_cells, 0);
    parallel_for(
        n_cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const std::size_t row = i / n_lon;
                const std::size_t col = i % n_lon;
                const double expected = grid.field()(row, col) *
                                        grid.cell_area_km2(row) * scale;
                if (expected <= 0.0) continue;
                const double whole = std::floor(expected);
                rng cell_rng = rng::split(options.seed, purpose_session_sampler, i);
                counts[i] = static_cast<std::int64_t>(whole) +
                            (cell_rng.bernoulli(expected - whole) ? 1 : 0);
            }
        });

    // Phase 2 — serial compaction to the populated cells, grid row-major
    // order, with the ground ECEF site precomputed per cell so the per-step
    // visibility tests never touch geodetic conversions.
    session_grid out;
    out.n_grid_cells = n_cells;
    for (std::size_t i = 0; i < n_cells; ++i) {
        if (counts[i] == 0) continue;
        const std::size_t row = i / n_lon;
        const std::size_t col = i % n_lon;
        session_cell cell;
        cell.latitude_deg = grid.latitude_center_deg(row);
        cell.longitude_deg = grid.longitude_center_deg(col);
        cell.site_ecef_m = astro::geodetic_to_ecef(
            {cell.latitude_deg, cell.longitude_deg, 0.0});
        cell.sessions_homed = counts[i];
        out.total_sessions += counts[i];
        out.cells.push_back(cell);
    }
    OBS_COUNT_N("serve.sampler.active_cells", out.cells.size());
    OBS_COUNT_N("serve.sampler.sessions",
                static_cast<std::uint64_t>(out.total_sessions));
    return out;
}

std::int64_t active_sessions(const session_cell& cell, const astro::instant& t)
{
    const double shape = demand::canonical_diurnal_shape(
        astro::mean_solar_time_hours(t, cell.longitude_deg));
    const double activity = shape / demand::canonical_diurnal_peak();
    return std::llround(static_cast<double>(cell.sessions_homed) * activity);
}

} // namespace ssplane::serve
