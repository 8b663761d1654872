#include "constellation/coverage_analysis.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "astro/propagator.h"
#include "geo/coverage.h"
#include "geo/geodesy.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::constellation {

namespace {

constexpr int uncapped = std::numeric_limits<int>::max();

/// Satellite directions within central angle `lambda` of `point` (unit),
/// counted up to `cap`: the search stops at the `cap`-th. `dirs` must be
/// sorted by z.
int point_coverage_count(const vec3& point, std::span<const vec3> dirs,
                         double cos_lambda, double lambda_rad, int cap)
{
    // Only satellites within +-lambda of the point's latitude can cover it.
    const double lat_p = safe_asin(point.z);
    const double z_lo = std::sin(std::max(-pi / 2.0, lat_p - lambda_rad));
    const double z_hi = std::sin(std::min(pi / 2.0, lat_p + lambda_rad));

    auto lo = std::lower_bound(dirs.begin(), dirs.end(), z_lo,
                               [](const vec3& v, double z) { return v.z < z; });
    int count = 0;
    for (auto it = lo; count < cap && it != dirs.end() && it->z <= z_hi; ++it) {
        if (point.dot(*it) >= cos_lambda) ++count;
    }
    return count;
}

std::vector<astro::j2_propagator> make_orbits(std::span<const satellite> sats,
                                              const astro::instant& epoch)
{
    std::vector<astro::j2_propagator> orbits;
    orbits.reserve(sats.size());
    for (const auto& s : sats) orbits.emplace_back(s.elements, epoch);
    return orbits;
}

/// The test points rotate with the Earth; equivalently (and cheaper) we
/// evaluate satellite directions in ECEF by rotating them by -GMST.
/// Because coverage only involves angles between directions, rotating the
/// satellites instead of the points is exact.
std::vector<vec3> satellite_directions_ecef(std::span<const astro::j2_propagator> orbits,
                                            const astro::instant& t)
{
    std::vector<vec3> dirs;
    dirs.reserve(orbits.size());
    const double theta = astro::gmst_rad(t);
    for (const auto& orbit : orbits)
        dirs.push_back(rotate_z(orbit.state_at(t).position_m, -theta).normalized());
    std::sort(dirs.begin(), dirs.end(),
              [](const vec3& a, const vec3& b) { return a.z < b.z; });
    return dirs;
}

struct check_context {
    std::vector<astro::j2_propagator> orbits;
    std::vector<vec3> points;
    double lambda_rad = 0.0;
    double cos_lambda = 1.0;
    double nodal_day_s = astro::seconds_per_day;
};

check_context make_context(std::span<const satellite> sats,
                           const astro::instant& epoch,
                           const coverage_check_options& options)
{
    expects(!sats.empty(), "coverage check needs satellites");
    check_context ctx;
    ctx.orbits = make_orbits(sats, epoch);
    ctx.points = coverage_test_points(options.max_latitude_deg, options.grid_spacing_deg);
    const auto cov = geo::coverage_geometry::from(sats[0].elements.semi_major_axis_m -
                                                      astro::earth_mean_radius_m,
                                                  options.min_elevation_rad);
    ctx.lambda_rad = cov.earth_central_half_angle_rad;
    ctx.cos_lambda = std::cos(ctx.lambda_rad);
    ctx.nodal_day_s = ctx.orbits.front().nodal_day_s();
    return ctx;
}

/// The one sampling loop: `n_time_steps` instants over a nodal day, every
/// test point at each, in that order. `visit(count)` gets each sample's
/// coverage count capped at `cap` and returns false to stop the sweep.
template <class Visit>
void for_each_sample(std::span<const satellite> sats, const astro::instant& epoch,
                     const coverage_check_options& options, int cap, Visit&& visit)
{
    const check_context ctx = make_context(sats, epoch, options);
    for (int k = 0; k < options.n_time_steps; ++k) {
        const astro::instant t = epoch.plus_seconds(
            ctx.nodal_day_s * static_cast<double>(k) / options.n_time_steps);
        const auto dirs = satellite_directions_ecef(ctx.orbits, t);
        for (const auto& p : ctx.points)
            if (!visit(point_coverage_count(p, dirs, ctx.cos_lambda, ctx.lambda_rad, cap)))
                return;
    }
}

} // namespace

std::vector<vec3> coverage_test_points(double max_latitude_deg, double grid_spacing_deg)
{
    expects(grid_spacing_deg > 0.0, "grid spacing must be positive");
    expects(max_latitude_deg > 0.0 && max_latitude_deg <= 90.0,
            "latitude band must be in (0, 90]");

    std::vector<vec3> points;
    const int n_lat = static_cast<int>(std::ceil(2.0 * max_latitude_deg / grid_spacing_deg));
    for (int i = 0; i < n_lat; ++i) {
        const double lat = -max_latitude_deg +
                           (static_cast<double>(i) + 0.5) * 2.0 * max_latitude_deg /
                               static_cast<double>(n_lat);
        // Scale longitude count by cos(lat) for quasi equal-area sampling.
        const int n_lon = std::max(
            4, static_cast<int>(std::ceil(360.0 * std::cos(deg2rad(lat)) / grid_spacing_deg)));
        for (int j = 0; j < n_lon; ++j) {
            const double lon = -180.0 + 360.0 * static_cast<double>(j) /
                                            static_cast<double>(n_lon);
            points.push_back(geo::to_unit_vector(lat, lon));
        }
    }
    return points;
}

bool covers_continuously(std::span<const satellite> sats,
                         const astro::instant& epoch,
                         const coverage_check_options& options)
{
    bool covered = true;
    for_each_sample(sats, epoch, options, 1, [&](int count) {
        covered = count > 0;
        return covered;
    });
    return covered;
}

double mean_simultaneous_coverage(std::span<const satellite> sats,
                                  const astro::instant& epoch,
                                  const coverage_check_options& options)
{
    double total = 0.0;
    std::size_t samples = 0;
    for_each_sample(sats, epoch, options, uncapped, [&](int count) {
        total += count;
        ++samples;
        return true;
    });
    return samples > 0 ? total / static_cast<double>(samples) : 0.0;
}

walker_size_result size_walker_for_coverage(double altitude_m,
                                            double inclination_rad,
                                            const coverage_check_options& options)
{
    walker_size_result best;
    const auto cov = geo::coverage_geometry::from(altitude_m, options.min_elevation_rad);
    const double lambda = cov.earth_central_half_angle_rad;
    const int s_min = geo::min_sats_for_street(lambda);
    if (s_min == 0) return best;

    const astro::instant epoch = astro::instant::j2000();

    // Coarse screening options: fewer time steps, coarser grid.
    coverage_check_options coarse = options;
    coarse.n_time_steps = std::max(16, options.n_time_steps / 4);
    coarse.grid_spacing_deg = options.grid_spacing_deg * 1.5;

    for (int s = s_min; s <= s_min + 6; ++s) {
        const double street = geo::street_half_width_rad(lambda, s);
        if (street <= 0.0) continue;
        // Generous lower bound: ascending and descending streets both help,
        // so plane spacing up to ~2*(street+lambda) can close the pattern.
        int p_lo = std::max(2, static_cast<int>(std::floor(pi / (2.0 * (street + lambda)))));
        const int p_hi = static_cast<int>(std::ceil(two_pi / (2.0 * street))) + 2;

        for (int p = p_lo; p <= p_hi; ++p) {
            if (best.found && p * s >= best.total) break; // cannot improve
            bool covered = false;
            walker_parameters params;
            for (int f : {1, 0, 2}) {
                if (f >= p) continue;
                params = walker_parameters{altitude_m, inclination_rad, p, s, f, 0.0, 0.0};
                const auto sats = make_walker_delta(params);
                if (!covers_continuously(sats, epoch, coarse)) continue;
                if (covers_continuously(sats, epoch, options)) {
                    covered = true;
                    break;
                }
            }
            if (covered) {
                if (!best.found || p * s < best.total) {
                    best.found = true;
                    best.parameters = params;
                    best.total = p * s;
                }
                break; // smallest P for this S found; larger P can't beat it
            }
        }
    }
    return best;
}

} // namespace ssplane::constellation
