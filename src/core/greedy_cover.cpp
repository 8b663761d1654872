#include "core/greedy_cover.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "constellation/sun_sync.h"
#include "core/plane_trace.h"
#include "geo/coverage.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ssplane::core {

namespace {

/// Residual demand a plane with the given mask would remove.
double coverable_demand(const geo::grid2d& residual,
                        const std::vector<std::uint8_t>& mask)
{
    double sum = 0.0;
    const auto values = residual.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (mask[i]) sum += std::min(values[i], 1.0);
    }
    return sum;
}

/// Subtract one capacity along the mask, clamping at zero; returns removed.
double apply_plane(geo::grid2d& residual, const std::vector<std::uint8_t>& mask)
{
    double removed = 0.0;
    const auto values = residual.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (!mask[i]) continue;
        const double take = std::min(values[i], 1.0);
        values[i] -= take;
        removed += take;
    }
    return removed;
}

struct seed_cell {
    bool found = false;
    std::size_t row = 0;
    std::size_t col = 0;
};

/// Memoized coverage masks for one greedy run. Planes are keyed by their
/// exact (inclination, ltan, swath): repeated seeds (cells needing several
/// capacities) solve to bit-identical LTANs, so their masks never get
/// rebuilt.
class mask_cache {
public:
    explicit mask_cache(const geo::lat_tod_grid& grid) : table_(grid) {}

    using mask_ptr = std::shared_ptr<const std::vector<std::uint8_t>>;

    mask_ptr mask_for(double inclination_rad, double ltan_h, double swath_rad)
    {
        const auto key = std::make_tuple(inclination_rad, ltan_h, swath_rad);
        if (const auto it = cache_.find(key); it != cache_.end()) return it->second;
        auto mask = std::make_shared<std::vector<std::uint8_t>>();
        table_.coverage_mask(inclination_rad, ltan_h, swath_rad, *mask);
        return cache_.emplace(key, std::move(mask)).first->second;
    }

private:
    sun_frame_table table_;
    std::map<std::tuple<double, double, double>, mask_ptr> cache_;
};

seed_cell pick_seed(const geo::grid2d& residual, seed_rule rule, rng& random)
{
    seed_cell seed;
    const auto values = residual.values();
    switch (rule) {
    case seed_rule::max_demand: {
        double best = 0.0;
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (values[i] > best) {
                best = values[i];
                seed = {true, i / residual.cols(), i % residual.cols()};
            }
        }
        break;
    }
    case seed_rule::min_demand: {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (values[i] > 1e-12 && values[i] < best) {
                best = values[i];
                seed = {true, i / residual.cols(), i % residual.cols()};
            }
        }
        break;
    }
    case seed_rule::random_cell: {
        std::vector<std::size_t> positive;
        for (std::size_t i = 0; i < values.size(); ++i)
            if (values[i] > 1e-12) positive.push_back(i);
        if (!positive.empty()) {
            const auto pick = positive[static_cast<std::size_t>(
                random.uniform_int(0, static_cast<std::int64_t>(positive.size()) - 1))];
            seed = {true, pick / residual.cols(), pick % residual.cols()};
        }
        break;
    }
    }
    return seed;
}

} // namespace

int resolve_sats_per_plane(const design_problem& problem)
{
    const auto cov =
        geo::coverage_geometry::from(problem.altitude_m, problem.min_elevation_rad);
    const int s_min = geo::min_sats_for_street(cov.earth_central_half_angle_rad);
    expects(s_min > 0, "no closed street exists at this altitude/elevation");
    return s_min;
}

ss_design_result greedy_ss_cover(const design_problem& problem,
                                 const ss_design_options& options)
{
    ss_design_result result;

    const auto inclination =
        constellation::sun_synchronous_inclination_rad(problem.altitude_m);
    expects(inclination.has_value(),
            "no sun-synchronous inclination at the problem altitude");

    const auto cov =
        geo::coverage_geometry::from(problem.altitude_m, problem.min_elevation_rad);
    const int sats_per_plane = resolve_sats_per_plane(problem);

    // The plane's capacity swath is the full footprint half-angle: the
    // paper's greedy subtracts one satellite capacity from every grid point
    // covered by the plane's path (its satellites sweep the whole swath).
    const double swath = cov.earth_central_half_angle_rad;

    result.sats_per_plane = sats_per_plane;
    result.swath_half_width_rad = swath;

    geo::lat_tod_grid residual = problem.demand; // working copy
    rng random(options.seed);
    mask_cache masks(residual);

    for (int iteration = 0; iteration < options.max_planes; ++iteration) {
        const seed_cell seed = pick_seed(residual.field(), options.rule, random);
        if (!seed.found) break;

        const double lat = residual.latitude_center_deg(seed.row);
        const double tod = residual.tod_center_h(seed.col);
        const ltan_solutions ltans = ltan_through(*inclination, lat, tod);

        // The max-demand latitude is always reachable for SS inclinations at
        // LEO (|lat| <= ~82°); guard anyway by skipping unreachable rows.
        std::vector<std::pair<double, mask_cache::mask_ptr>> candidates;
        const auto add_candidate = [&](std::optional<double> ltan) {
            if (!ltan) return;
            candidates.emplace_back(*ltan,
                                    masks.mask_for(*inclination, *ltan, swath));
        };
        add_candidate(ltans.ascending);
        add_candidate(ltans.descending);
        if (candidates.empty()) {
            // Unreachable latitude: zero its row so the loop can progress and
            // report unsatisfied residual demand at the end.
            for (std::size_t c = 0; c < residual.n_tod(); ++c)
                residual.field()(seed.row, c) = 0.0;
            continue;
        }

        // Score candidates concurrently (index-ordered results keep the
        // tie-break — first best wins — identical to the serial loop).
        const auto covers = parallel_map<double>(
            candidates.size(), [&](std::size_t i) {
                return coverable_demand(residual.field(), *candidates[i].second);
            });
        std::size_t best = 0;
        double best_cover = -1.0;
        for (std::size_t i = 0; i < covers.size(); ++i) {
            if (covers[i] > best_cover) {
                best_cover = covers[i];
                best = i;
            }
        }

        const double removed = apply_plane(residual.field(), *candidates[best].second);
        result.planes.push_back({candidates[best].first, *inclination,
                                 problem.altitude_m, sats_per_plane, removed});
    }

    result.total_satellites = static_cast<int>(result.planes.size()) * sats_per_plane;
    result.residual_demand = total_demand(residual);
    result.satisfied = result.residual_demand <= 1e-9;
    return result;
}

plane_lower_bounds ss_plane_lower_bounds(const design_problem& problem)
{
    plane_lower_bounds bounds;

    double max_cell = 0.0;
    for (double v : problem.demand.field().values()) max_cell = std::max(max_cell, v);
    bounds.per_cell_bound = static_cast<int>(std::ceil(max_cell));

    // Volume bound: one plane covers at most `mask size of an equatorial
    // plane` cells (the widest case) with one capacity each.
    const auto inclination =
        constellation::sun_synchronous_inclination_rad(problem.altitude_m);
    if (inclination) {
        const auto cov =
            geo::coverage_geometry::from(problem.altitude_m, problem.min_elevation_rad);
        const auto mask = plane_coverage_mask(problem.demand, *inclination, 12.0,
                                              cov.earth_central_half_angle_rad);
        double per_plane = 0.0;
        for (const auto m : mask) per_plane += m ? 1.0 : 0.0;
        if (per_plane > 0.0) {
            bounds.volume_bound = static_cast<int>(
                std::ceil(total_demand(problem.demand) / per_plane));
        }
    }
    return bounds;
}

} // namespace ssplane::core
