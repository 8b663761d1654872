// Users → beams → visible satellites under hard capacity limits.
//
// One step of serving: every populated cell's active sessions (diurnal
// gating of the homed count) are packed onto steerable beams of the
// satellites that see the cell above the elevation mask, subject to three
// limits — per-beam capacity, per-beam user count, and per-satellite
// user-link capacity. Sessions that no beam can take are dropped; beams
// whose capacity share falls below the degraded-rate threshold leave their
// users degraded.
//
// A step splits in two:
//   * `discover_visibility` — which satellites see which cell, and how
//     many sessions each cell has awake. It ignores the failure mask, so
//     every failure scenario serving the same grid at the same instant
//     shares one table. Each 6° latitude band of sub-satellite points is
//     sorted by longitude, and a cell scans only the wrapped longitude
//     window its footprint reach allows, in the bands that reach touches;
//     the exact elevation test decides membership.
//   * `pack_beams` — the greedy packing walk over one failure mask; failed
//     satellites are skipped.
// `assign_beams` is the two back to back.
//
// Determinism contract: discovery runs in parallel over cells into
// per-chunk buffers joined in cell order (pure functions of the step,
// chunk-independent); the greedy packing
// itself is one serial walk over cells in grid order that picks by a
// strict total order (most residual satellite capacity, then higher
// elevation, then lower satellite index), so neither the order of a
// cell's candidates nor the thread count nor the chunk size can reach the
// result.
#ifndef SSPLANE_SERVE_BEAM_ASSIGNMENT_H
#define SSPLANE_SERVE_BEAM_ASSIGNMENT_H

#include <cstdint>
#include <span>
#include <vector>

#include "serve/session_grid.h"

namespace ssplane::serve {

/// A run of sessions all delivered the same per-session rate — the compact
/// (O(beams), not O(users)) representation the SLO percentiles are
/// computed from. Dropped sessions appear as one group at rate 0.
struct session_rate_group {
    double rate_mbps = 0.0;
    std::int64_t sessions = 0;
};

/// Outcome of one step's beam assignment.
struct beam_assignment {
    std::int64_t sessions_active = 0;   ///< Diurnally awake sessions this step.
    std::int64_t sessions_dropped = 0;  ///< No beam had room (rate 0).
    std::int64_t sessions_degraded = 0; ///< Served below the degraded threshold.
    double offered_gbps = 0.0;          ///< Active sessions × session rate.
    double delivered_gbps = 0.0;        ///< Σ delivered over all beams.
    int beams_used = 0;
    int satellites_serving = 0;         ///< Satellites with ≥ 1 beam in use.
    /// Delivered-rate distribution over active sessions, one group per
    /// beam plus the dropped group; Σ sessions == sessions_active.
    std::vector<session_rate_group> rate_groups;

    /// Fraction of active sessions served at full SLO (neither dropped nor
    /// degraded); vacuously 1 when nothing is awake.
    double served_fraction() const noexcept
    {
        if (sessions_active == 0) return 1.0;
        return static_cast<double>(sessions_active - sessions_dropped -
                                   sessions_degraded) /
               static_cast<double>(sessions_active);
    }
};

/// A satellite that sees a cell at or above the elevation mask.
struct visible_satellite {
    int satellite = 0;
    double elevation_rad = 0.0;
};

/// The mask-independent half of one serving step: every cell's active
/// sessions and its visible satellites, failed ones included. Cell i's
/// satellites are `entries[cell_begin[i], cell_begin[i + 1])`, in no
/// particular order.
struct visibility_table {
    int n_satellites = 0;
    std::vector<std::int64_t> active;    ///< `active_sessions` per grid cell.
    std::vector<std::size_t> cell_begin; ///< One per grid cell, plus one.
    std::vector<visible_satellite> entries;

    std::span<const visible_satellite> of(std::size_t cell) const noexcept
    {
        return {entries.data() + cell_begin[cell],
                cell_begin[cell + 1] - cell_begin[cell]};
    }
};

/// The step of `grid` at absolute time `t` (which drives the diurnal
/// activity gating per cell), given every satellite's ECEF position then.
/// A cell sees exactly the satellites whose elevation from its site is at
/// least `options.min_elevation_rad`. Bit-identical for any
/// SSPLANE_THREADS value.
visibility_table discover_visibility(const session_grid& grid,
                                     const std::vector<vec3>& sat_positions_ecef,
                                     const astro::instant& t,
                                     const serving_options& options);

/// Pack one step's active sessions onto the beams of the visible
/// satellites, walking the cells of `visibility` (a `discover_visibility`
/// result) in grid order; `failed` (empty = none, else one flag per
/// satellite) removes satellites from service entirely.
///
/// Each dropped session is counted once under the first reason that holds
/// for its cell: `serve.drop.no_visible` (no alive satellite sees it),
/// `serve.drop.no_beam` (every alive one has used all its beams),
/// `serve.drop.no_capacity` (some alive one has a beam but no capacity).
beam_assignment pack_beams(const visibility_table& visibility,
                           std::span<const std::uint8_t> failed,
                           const serving_options& options);

/// Assign one step at absolute time `t`: `discover_visibility` then
/// `pack_beams`. `sat_positions_ecef` holds every satellite's ECEF
/// position.
beam_assignment assign_beams(const session_grid& grid,
                             const std::vector<vec3>& sat_positions_ecef,
                             std::span<const std::uint8_t> failed,
                             const astro::instant& t,
                             const serving_options& options);

/// Linear-walk percentile of the delivered-rate distribution: the smallest
/// rate r such that at least `percent`% of the sessions have rate ≤ r.
/// The p99 *floor* ("the rate 99% of sessions meet or exceed") is
/// percentile 1.0; the median is percentile 50. 0 for an empty set.
double session_rate_percentile(std::span<const session_rate_group> groups,
                               double percent);

} // namespace ssplane::serve

#endif // SSPLANE_SERVE_BEAM_ASSIGNMENT_H
