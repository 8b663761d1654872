// Paper Figure 2: example repeat ground-track (15:1, ~65 deg) and the
// surface region covered by a single satellite riding it.
#include <iostream>

#include "astro/ground_track.h"
#include "bench_util.h"
#include "constellation/rgt.h"
#include "geo/coverage.h"
#include "geo/geodesy.h"
#include "geo/grid.h"
#include "util/angles.h"
#include "util/csv.h"

using namespace ssplane;

int main()
{
    bench::stopwatch timer;
    const auto design = constellation::design_rgt(15, 1, deg2rad(65.0));
    if (!design) {
        std::cout << "CHECK FAIL: 15:1 RGT design did not converge\n";
        return 1;
    }

    std::cout << "# Figure 2: 15:1 repeat ground track at "
              << design->altitude_m / 1000.0 << " km, i=65 deg\n\n";

    astro::orbital_elements el;
    el.semi_major_axis_m = astro::semi_major_axis_for_altitude_m(design->altitude_m);
    el.inclination_rad = design->inclination_rad;
    const astro::instant epoch = astro::instant::j2000();
    const astro::j2_propagator orbit(el, epoch);

    // Sampled track (the paper's plotted curve) at 60 s resolution.
    const auto track =
        astro::sample_ground_track(orbit, epoch, design->repeat_period_s, 60.0);
    csv_writer csv(std::cout, {"t_s", "latitude_deg", "longitude_deg"});
    for (const auto& p : track) {
        csv.row({p.time.seconds_since(epoch), p.ground.latitude_deg,
                 p.ground.longitude_deg});
    }

    // Swath statistics: fraction of the Earth within the coverage half-angle
    // of the track (the red region of the paper's figure).
    const auto cov = geo::coverage_geometry::from(design->altitude_m, deg2rad(30.0));
    geo::lat_lon_grid grid(2.0);
    std::size_t covered_cells = 0;
    double covered_area = 0.0;
    double band_area = 0.0;
    const double cos_lambda = std::cos(cov.earth_central_half_angle_rad);
    for (std::size_t r = 0; r < grid.n_lat(); ++r) {
        const double lat = grid.latitude_center_deg(r);
        for (std::size_t c = 0; c < grid.n_lon(); ++c) {
            const vec3 p = geo::to_unit_vector(lat, grid.longitude_center_deg(c));
            bool in_swath = false;
            for (std::size_t k = 0; k < track.size(); k += 3) {
                const vec3 t = geo::to_unit_vector(track[k].ground.latitude_deg,
                                                   track[k].ground.longitude_deg);
                if (p.dot(t) >= cos_lambda) {
                    in_swath = true;
                    break;
                }
            }
            const double area = grid.cell_area_km2(r);
            if (std::abs(lat) <= 65.0 + rad2deg(cov.earth_central_half_angle_rad))
                band_area += area;
            if (in_swath) {
                ++covered_cells;
                covered_area += area;
            }
        }
    }

    std::cout << "\nswath_half_angle_deg=" << rad2deg(cov.earth_central_half_angle_rad)
              << "\nswath_area_fraction_of_band=" << covered_area / band_area
              << "\ncovered_cells=" << covered_cells << "\n\n";

    // Paper: the 15:1 swath visibly does NOT tile the band (gaps between
    // adjacent passes) — that is the whole point of the figure.
    bench::check("15:1 swath leaves gaps (covers <95% of its latitude band)",
                 covered_area / band_area < 0.95);
    bench::check("15:1 swath still covers the majority of the band",
                 covered_area / band_area > 0.45);
    bench::check("track latitude bounded by inclination",
                 [&] {
                     for (const auto& p : track)
                         if (std::abs(p.ground.latitude_deg) > 65.5) return false;
                     return true;
                 }());

    std::cout << "elapsed_s=" << timer.seconds() << "\n";
    return bench::exit_status();
}
