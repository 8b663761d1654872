// Deterministic million-user session sampling (ROADMAP "million-user
// session-level serving").
//
// Production constellations serve millions of concurrent user terminals,
// not a few dozen gateway pairs — but materializing one record per user
// would make every sweep O(users) in memory. The sampler instead draws N
// sessions from the population grid and keeps only *cell aggregates*: each
// populated 0.5° cell stores how many sessions home there, plus its
// precomputed ECEF site for the per-step visibility tests. Memory is
// O(active cells) (tens of thousands of cells for any N, 1M or 100M), and
// the beam-assignment pass streams over cells, never over users.
//
// Determinism contract: the per-cell session count is floor(expected) plus
// a stochastic rounding of the fractional part drawn from
// `rng::split(seed, purpose, cell_index)` — a sub-stream per grid cell, so
// the draw depends only on (seed, cell), never on chunking or thread
// count. Sampling is bit-identical for any SSPLANE_THREADS value.
#ifndef SSPLANE_SERVE_SESSION_GRID_H
#define SSPLANE_SERVE_SESSION_GRID_H

#include <cstdint>
#include <vector>

#include "astro/time.h"
#include "demand/population.h"
#include "util/vec3.h"

namespace ssplane::serve {

/// Knobs of the serving subsystem: session population, per-beam and
/// per-satellite limits, and the SLO thresholds.
struct serving_options {
    /// Sessions to draw from the population grid (expected total; the
    /// stochastic rounding makes the realized total differ by O(√cells)).
    std::int64_t n_sessions = 1'000'000;
    /// Offered rate of one active session [Mbps].
    double session_rate_mbps = 20.0;
    /// Steerable user beams per satellite.
    int beams_per_satellite = 16;
    /// Capacity of one beam [Gbps] — shared by the users it serves.
    double beam_capacity_gbps = 1.0;
    /// Hard per-beam user-count limit (scheduler slots).
    int max_users_per_beam = 500;
    /// Total user-link capacity of one satellite [Gbps], across beams.
    double satellite_capacity_gbps = 10.0;
    /// Minimum elevation for a cell to see a satellite [rad].
    double min_elevation_rad = 0.4363323129985824; ///< 25°.
    /// A served session is "degraded" when its delivered rate falls below
    /// this fraction of the offered rate.
    double degraded_rate_fraction = 0.5;
    /// A step is "restored" when its served fraction (sessions at full
    /// SLO) is at least this; feeds `time_to_restore`.
    double restore_served_fraction = 0.9;
    // DETLINT-ALLOW(validate-coverage): every 64-bit seed is valid.
    std::uint64_t seed = 0; ///< Sampler sub-stream seed.
};

/// Reject degenerate serving knobs with a clear `contract_violation`.
void validate(const serving_options& options);

/// One populated grid cell: where its sessions are and how many home there.
struct session_cell {
    double latitude_deg = 0.0;
    double longitude_deg = 0.0;
    vec3 site_ecef_m;                 ///< Cell-center ground site (precomputed).
    std::int64_t sessions_homed = 0;  ///< Sessions drawn into this cell.
};

/// The sampled session population, aggregated per populated cell.
struct session_grid {
    std::vector<session_cell> cells;  ///< Populated cells, grid row-major order.
    std::int64_t total_sessions = 0;  ///< Σ sessions_homed.
    std::size_t n_grid_cells = 0;     ///< Cells scanned (the full lat/lon grid).
};

/// Draw `options.n_sessions` sessions from the population density field.
/// Cells get sessions in proportion to population mass (density × area);
/// the fractional remainders are resolved by per-cell Bernoulli draws on
/// `rng::split` sub-streams. Deterministic in `options.seed`; bit-identical
/// for any thread count.
session_grid sample_session_grid(const demand::population_model& population,
                                 const serving_options& options);

/// Sessions of `cell` active at absolute time `t`: the homed count scaled
/// by the canonical diurnal shape at the cell's local solar time,
/// normalized so the diurnal peak activates every homed session. Pure
/// rounding, no randomness — identical sessions wake at identical times.
std::int64_t active_sessions(const session_cell& cell, const astro::instant& t);

} // namespace ssplane::serve

#endif // SSPLANE_SERVE_SESSION_GRID_H
