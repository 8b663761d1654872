#include "radiation/fluence.h"

#include <algorithm>
#include <cmath>

#include "astro/frames.h"
#include "radiation/solar_cycle.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::radiation {

namespace {

/// Calls `visit(i, r_ecef)` for every cell center of `grid` at `altitude_m`,
/// `i` the row-major cell index. Rows run on the pool and each cell writes
/// only its own entries, so the result is the same at any thread count.
template <typename Visit>
void for_each_cell_center(const geo::lat_lon_grid& grid, double altitude_m,
                          const Visit& visit)
{
    const std::size_t n_lon = grid.n_lon();
    parallel_for(grid.n_lat(), [&](std::size_t row_begin, std::size_t row_end) {
        for (std::size_t r = row_begin; r < row_end; ++r) {
            const double lat = grid.latitude_center_deg(r);
            for (std::size_t c = 0; c < n_lon; ++c) {
                const astro::geodetic g{lat, grid.longitude_center_deg(c), altitude_m};
                visit(r * n_lon + c, astro::geodetic_to_ecef(g));
            }
        }
    });
}

} // namespace

fluence_result accumulate_fluence(const radiation_environment& env,
                                  const astro::j2_propagator& orbit,
                                  const astro::instant& start,
                                  double duration_s,
                                  double step_s)
{
    expects(duration_s > 0.0 && step_s > 0.0, "duration and step must be positive");

    // Freeze the activity at the start-of-day value: the paper accumulates
    // per-day, and intra-day activity structure is below model fidelity.
    const double activity = solar_activity(start);

    // Midpoint samples with exact interval lengths: the final step covers
    // whatever remainder of `duration_s` is left (its midpoint sits at the
    // center of the remainder), so partial steps integrate exactly instead
    // of being dropped.
    const auto n_steps = static_cast<std::size_t>(std::ceil(duration_s / step_s));
    std::vector<double> midpoints_s;
    std::vector<double> intervals_s;
    midpoints_s.reserve(n_steps);
    intervals_s.reserve(n_steps);
    for (std::size_t i = 0; i < n_steps; ++i) {
        const double t0 = static_cast<double>(i) * step_s;
        const double dt = std::min(step_s, duration_s - t0);
        if (dt <= 0.0) break;
        midpoints_s.push_back(t0 + 0.5 * dt);
        intervals_s.push_back(dt);
    }
    const std::size_t n = midpoints_s.size();

    // Fixed-size chunks keep the reduction order independent of the worker
    // count: chunk partial sums are always combined in chunk order.
    constexpr std::size_t chunk = 1024;
    const std::size_t n_chunks = (n + chunk - 1) / chunk;
    std::vector<fluence_result> partials(n_chunks);

    parallel_for(
        n,
        [&](std::size_t begin, std::size_t end) {
            const std::span<const double> offsets(midpoints_s.data() + begin,
                                                  end - begin);
            std::vector<astro::state_vector> states(offsets.size());
            orbit.states_at_offsets(start, offsets, states);

            fluence_result sum;
            for (std::size_t i = begin; i < end; ++i) {
                const astro::instant t = start.plus_seconds(midpoints_s[i]);
                const vec3 r_ecef =
                    astro::eci_to_ecef(states[i - begin].position_m, t);
                const particle_flux f = env.flux(r_ecef, activity);
                sum.electrons_cm2_mev += f.electrons_cm2_s_mev * intervals_s[i];
                sum.protons_cm2_mev += f.protons_cm2_s_mev * intervals_s[i];
            }
            partials[begin / chunk] = sum;
        },
        chunk);

    fluence_result total;
    for (const auto& p : partials) {
        total.electrons_cm2_mev += p.electrons_cm2_mev;
        total.protons_cm2_mev += p.protons_cm2_mev;
    }
    return total;
}

fluence_result daily_fluence(const radiation_environment& env,
                             double altitude_m,
                             double inclination_rad,
                             const astro::instant& day,
                             double raan_rad,
                             double step_s)
{
    const astro::j2_propagator orbit(
        astro::circular_orbit(altitude_m, inclination_rad, raan_rad, 0.0), day);
    return accumulate_fluence(env, orbit, day, astro::seconds_per_day, step_s);
}

flux_maps flux_map_at_altitude(const radiation_environment& env,
                               double altitude_m,
                               double cell_deg,
                               const astro::instant& t)
{
    flux_maps maps{geo::lat_lon_grid(cell_deg), geo::lat_lon_grid(cell_deg)};
    const double activity = solar_activity(t);
    const auto electrons = maps.electrons.field().values();
    const auto protons = maps.protons.field().values();
    for_each_cell_center(maps.electrons, altitude_m, [&](std::size_t i, const vec3& r) {
        const particle_flux f = env.flux(r, activity);
        electrons[i] = f.electrons_cm2_s_mev;
        protons[i] = f.protons_cm2_s_mev;
    });
    return maps;
}

geo::lat_lon_grid max_electron_flux_map(const radiation_environment& env,
                                        double altitude_m,
                                        double cell_deg,
                                        int n_days,
                                        std::uint64_t seed)
{
    // The outer belt is non-negative and activity only scales it, so each
    // cell's maximum over the days is its flux at the largest outer scale:
    // one geometry evaluation per cell, the per-day maximum bit for bit.
    const auto days = sample_cycle24_days(n_days, seed);
    double max_scale = env.outer_activity_scale(solar_activity(days.front()));
    for (const auto& day : days)
        max_scale = std::max(max_scale, env.outer_activity_scale(solar_activity(day)));

    geo::lat_lon_grid map(cell_deg);
    const auto values = map.field().values();
    for_each_cell_center(map, altitude_m, [&](std::size_t i, const vec3& r) {
        const flux_components c = env.components_at(r);
        values[i] = c.electron_inner + c.electron_outer * max_scale;
    });
    return map;
}

} // namespace ssplane::radiation
