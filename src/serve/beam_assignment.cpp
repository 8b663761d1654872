#include "serve/beam_assignment.h"

#include <algorithm>
#include <cmath>

#include "astro/frames.h"
#include "geo/coverage.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::serve {

namespace {

/// Satellite bucketed by sub-point latitude band, for the per-cell
/// candidate search. Longitudes are kept for the cheap box prefilter; the
/// exact elevation test always has the final word.
struct bucketed_satellite {
    double longitude_deg = 0.0;
    double latitude_deg = 0.0;
    int index = 0;
};

/// Conservative slack [deg] absorbing the geodetic-vs-geocentric latitude
/// offset and the spherical-cap approximation of the box prefilter. A sat
/// inside the margin is elevation-tested, never assumed visible.
constexpr double prefilter_margin_deg = 1.0;

constexpr double band_width_deg = 6.0;

/// Widening of the binary-searched longitude window [deg], so rounding in
/// its bounds can never cut off a satellite the exact wrapped-delta test
/// below would keep.
constexpr double window_slack_deg = 1.0e-9;

double wrapped_longitude_delta_deg(double a, double b)
{
    double d = std::abs(a - b);
    if (d > 180.0) d = 360.0 - d;
    return d;
}

/// First satellite of a longitude-sorted band at or east of `lon`.
std::size_t lower_longitude(const std::vector<bucketed_satellite>& band, double lon)
{
    return static_cast<std::size_t>(
        std::lower_bound(band.begin(), band.end(), lon,
                         [](const bucketed_satellite& s, double v) {
                             return s.longitude_deg < v;
                         }) -
        band.begin());
}

/// One past the last satellite of a longitude-sorted band at or west of
/// `lon`.
std::size_t upper_longitude(const std::vector<bucketed_satellite>& band, double lon)
{
    return static_cast<std::size_t>(
        std::upper_bound(band.begin(), band.end(), lon,
                         [](double v, const bucketed_satellite& s) {
                             return v < s.longitude_deg;
                         }) -
        band.begin());
}

} // namespace

visibility_table discover_visibility(const session_grid& grid,
                                     const std::vector<vec3>& sat_positions_ecef,
                                     const astro::instant& t,
                                     const serving_options& options)
{
    OBS_SPAN("serve.discover");
    OBS_COUNT("serve.discover.steps");
    validate(options);
    const std::size_t n_sats = sat_positions_ecef.size();

    // Bucket every satellite by sub-point latitude band, sorted by
    // longitude within the band, and find the widest footprint of all of
    // them: the search below then never depends on the failure mask.
    const int n_bands = static_cast<int>(std::ceil(180.0 / band_width_deg));
    std::vector<std::vector<bucketed_satellite>> bands(
        static_cast<std::size_t>(n_bands));
    double psi_max_deg = 0.0;
    for (std::size_t s = 0; s < n_sats; ++s) {
        const astro::geodetic sub = astro::ecef_to_geodetic(sat_positions_ecef[s]);
        psi_max_deg = std::max(
            psi_max_deg,
            rad2deg(geo::coverage_geometry::from(sub.altitude_m, options.min_elevation_rad)
                        .earth_central_half_angle_rad));
        const int band = std::clamp(
            static_cast<int>((sub.latitude_deg + 90.0) / band_width_deg), 0,
            n_bands - 1);
        bands[static_cast<std::size_t>(band)].push_back(
            {sub.longitude_deg, sub.latitude_deg, static_cast<int>(s)});
    }
    for (auto& band : bands)
        std::sort(band.begin(), band.end(),
                  [](const bucketed_satellite& a, const bucketed_satellite& b) {
                      return a.longitude_deg < b.longitude_deg ||
                             (a.longitude_deg == b.longitude_deg && a.index < b.index);
                  });
    const double reach_deg = psi_max_deg + prefilter_margin_deg;

    // Candidate discovery in parallel. Each chunk appends its cells'
    // satellites to its own buffer and records per-cell counts; the
    // buffers are then joined in chunk order, i.e. in cell order. Pure
    // geometry, so neither thread count nor chunking can reach the table.
    // The chunk size is the pool's default made explicit, so a body can
    // find its buffer.
    const std::size_t n_cells = grid.cells.size();
    const std::size_t chunk = std::max<std::size_t>(1, (n_cells + 63) / 64);
    std::vector<std::vector<visible_satellite>> chunk_entries(
        (n_cells + chunk - 1) / chunk);
    visibility_table table;
    table.n_satellites = static_cast<int>(n_sats);
    table.active.assign(n_cells, 0);
    table.cell_begin.assign(n_cells + 1, 0);
    parallel_for(
        n_cells,
        [&](std::size_t begin, std::size_t end) {
            auto& found = chunk_entries[begin / chunk];
            for (std::size_t i = begin; i < end; ++i) {
                const session_cell& cell = grid.cells[i];
                table.active[i] = active_sessions(cell, t);
                const std::size_t before = found.size();
                // Longitude window of a spherical cap of radius `reach`
                // centered on the cell; past the pole every longitude is in.
                const double abs_lat = std::abs(cell.latitude_deg);
                double allowed_dlon_deg = 180.0;
                if (abs_lat + reach_deg < 90.0) {
                    const double s = std::sin(deg2rad(reach_deg)) /
                                     std::cos(deg2rad(cell.latitude_deg));
                    if (s < 1.0) allowed_dlon_deg = rad2deg(std::asin(s));
                }
                const double half_window = allowed_dlon_deg + window_slack_deg;
                const double west = cell.longitude_deg - half_window;
                const double east = cell.longitude_deg + half_window;
                const auto test = [&](const bucketed_satellite& sat) {
                    if (std::abs(sat.latitude_deg - cell.latitude_deg) > reach_deg)
                        return;
                    if (wrapped_longitude_delta_deg(sat.longitude_deg,
                                                    cell.longitude_deg) >
                        allowed_dlon_deg)
                        return;
                    const double elevation = astro::elevation_angle_rad(
                        cell.site_ecef_m,
                        sat_positions_ecef[static_cast<std::size_t>(sat.index)]);
                    if (elevation >= options.min_elevation_rad)
                        found.push_back({sat.index, elevation});
                };
                const int band_lo = std::clamp(
                    static_cast<int>((cell.latitude_deg - reach_deg + 90.0) /
                                     band_width_deg),
                    0, n_bands - 1);
                const int band_hi = std::clamp(
                    static_cast<int>((cell.latitude_deg + reach_deg + 90.0) /
                                     band_width_deg),
                    0, n_bands - 1);
                for (int b = band_lo; b <= band_hi; ++b) {
                    const auto& band = bands[static_cast<std::size_t>(b)];
                    if (half_window >= 180.0) {
                        for (const bucketed_satellite& sat : band) test(sat);
                        continue;
                    }
                    // The window [west, east] and, where it crosses the
                    // ±180° seam, its wrapped part on the other side; the
                    // index ranges are clipped so no satellite is visited
                    // twice.
                    const std::size_t lo = lower_longitude(band, west);
                    const std::size_t hi = upper_longitude(band, east);
                    for (std::size_t k = lo; k < hi; ++k) test(band[k]);
                    if (west < -180.0)
                        for (std::size_t k = std::max(hi, lower_longitude(band, west + 360.0));
                             k < band.size(); ++k)
                            test(band[k]);
                    if (east > 180.0)
                        for (std::size_t k = 0;
                             k < std::min(lo, upper_longitude(band, east - 360.0)); ++k)
                            test(band[k]);
                }
                table.cell_begin[i + 1] = found.size() - before;
            }
        },
        chunk);

    for (std::size_t i = 0; i < n_cells; ++i)
        table.cell_begin[i + 1] += table.cell_begin[i];
    table.entries.reserve(table.cell_begin[n_cells]);
    for (auto& found : chunk_entries) {
        table.entries.insert(table.entries.end(), found.begin(), found.end());
        found = {};
    }
    return table;
}

beam_assignment pack_beams(const visibility_table& visibility,
                           std::span<const std::uint8_t> failed,
                           const serving_options& options)
{
    OBS_SPAN("serve.pack");
    validate(options);
    const std::size_t n_sats = static_cast<std::size_t>(visibility.n_satellites);
    const std::size_t n_cells = visibility.active.size();
    expects(visibility.cell_begin.size() == n_cells + 1,
            "visibility table must have one offset per cell, plus one");
    expects(failed.empty() || failed.size() == n_sats,
            "failure mask size must match the satellite count");

    // Greedy packing: one serial walk over cells in grid order. Per beam
    // the pick is the visible satellite with the most residual user-link
    // capacity (tie: higher elevation, then lower index) — load balancing
    // with exact lexicographic tie-breaking, so the walk is deterministic.
    // A failed satellite starts with no beams, so the walk never picks it.
    beam_assignment result;
    std::vector<int> beams_left(n_sats, options.beams_per_satellite);
    for (std::size_t s = 0; s < failed.size(); ++s)
        if (failed[s] != 0) beams_left[s] = 0;
    std::vector<double> capacity_left(n_sats, options.satellite_capacity_gbps);
    std::vector<std::uint8_t> serving(n_sats, 0);
    std::int64_t dropped_no_visible = 0;
    std::int64_t dropped_no_beam = 0;
    std::int64_t dropped_no_capacity = 0;
    const double rate_gbps = options.session_rate_mbps / 1000.0;
    for (std::size_t i = 0; i < n_cells; ++i) {
        const std::int64_t active = visibility.active[i];
        if (active == 0) continue;
        result.sessions_active += active;
        result.offered_gbps += static_cast<double>(active) * rate_gbps;
        std::int64_t remaining = active;
        const auto cell_candidates = visibility.of(i);
        while (remaining > 0) {
            int best = -1;
            double best_capacity = 0.0;
            double best_elevation = 0.0;
            for (const visible_satellite& c : cell_candidates) {
                const std::size_t s = static_cast<std::size_t>(c.satellite);
                if (beams_left[s] == 0) continue;
                const double capacity = capacity_left[s];
                if (capacity <= 0.0) continue;
                const bool better =
                    best < 0 || capacity > best_capacity ||
                    (capacity == best_capacity &&
                     (c.elevation_rad > best_elevation ||
                      (c.elevation_rad == best_elevation && c.satellite < best)));
                if (better) {
                    best = c.satellite;
                    best_capacity = capacity;
                    best_elevation = c.elevation_rad;
                }
            }
            if (best < 0) break; // every visible satellite is saturated
            const std::size_t s = static_cast<std::size_t>(best);
            const std::int64_t users = std::min(
                remaining, static_cast<std::int64_t>(options.max_users_per_beam));
            const double offered = static_cast<double>(users) * rate_gbps;
            const double delivered = std::min(
                {offered, options.beam_capacity_gbps, capacity_left[s]});
            --beams_left[s];
            capacity_left[s] -= delivered;
            serving[s] = 1;
            ++result.beams_used;
            result.delivered_gbps += delivered;
            if (delivered < options.degraded_rate_fraction * offered)
                result.sessions_degraded += users;
            result.rate_groups.push_back(
                {delivered * 1000.0 / static_cast<double>(users), users});
            remaining -= users;
        }
        if (remaining == 0) continue;
        result.sessions_dropped += remaining;
        bool any_alive = false;
        bool any_beam = false;
        for (const visible_satellite& c : cell_candidates) {
            const std::size_t s = static_cast<std::size_t>(c.satellite);
            any_alive = any_alive || failed.empty() || failed[s] == 0;
            any_beam = any_beam || beams_left[s] > 0;
        }
        if (!any_alive)
            dropped_no_visible += remaining;
        else if (!any_beam)
            dropped_no_beam += remaining;
        else
            dropped_no_capacity += remaining;
    }
    if (result.sessions_dropped > 0)
        result.rate_groups.push_back({0.0, result.sessions_dropped});
    for (std::size_t s = 0; s < n_sats; ++s)
        if (serving[s] != 0) ++result.satellites_serving;

    OBS_COUNT("serve.assign.steps");
    OBS_COUNT_N("serve.assign.sessions_active",
                static_cast<std::uint64_t>(result.sessions_active));
    OBS_COUNT_N("serve.assign.beams_used",
                static_cast<std::uint64_t>(result.beams_used));
    OBS_COUNT_N("serve.drop.no_visible", static_cast<std::uint64_t>(dropped_no_visible));
    OBS_COUNT_N("serve.drop.no_beam", static_cast<std::uint64_t>(dropped_no_beam));
    OBS_COUNT_N("serve.drop.no_capacity",
                static_cast<std::uint64_t>(dropped_no_capacity));
    return result;
}

beam_assignment assign_beams(const session_grid& grid,
                             const std::vector<vec3>& sat_positions_ecef,
                             std::span<const std::uint8_t> failed,
                             const astro::instant& t,
                             const serving_options& options)
{
    return pack_beams(discover_visibility(grid, sat_positions_ecef, t, options), failed,
                      options);
}

double session_rate_percentile(std::span<const session_rate_group> groups,
                               double percent)
{
    expects(percent >= 0.0 && percent <= 100.0,
            "percentile must lie in [0, 100]");
    std::vector<session_rate_group> sorted(groups.begin(), groups.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const session_rate_group& a, const session_rate_group& b) {
                  return a.rate_mbps < b.rate_mbps;
              });
    std::int64_t total = 0;
    for (const session_rate_group& g : sorted) total += g.sessions;
    if (total == 0) return 0.0;
    const double target = percent / 100.0 * static_cast<double>(total);
    std::int64_t cumulative = 0;
    for (const session_rate_group& g : sorted) {
        cumulative += g.sessions;
        if (static_cast<double>(cumulative) >= target) return g.rate_mbps;
    }
    return sorted.back().rate_mbps;
}

} // namespace ssplane::serve
