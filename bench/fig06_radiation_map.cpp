// Paper Figure 6: maximum electron flux at 560 km over a sample of 128 days
// from solar cycle 24 (IRENE-substitute belt model).
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "radiation/fluence.h"
#include "util/csv.h"

using namespace ssplane;

int main()
{
    bench::stopwatch timer;
    std::cout << "# Figure 6: max electron flux at 560 km, 128 days of cycle 24\n\n";

    const radiation::radiation_environment env;
    const auto map = radiation::max_electron_flux_map(env, 560.0e3, 2.0, 128, 2024);

    // Emit at 4-degree resolution to keep the output compact.
    csv_writer csv(std::cout, {"latitude_deg", "longitude_deg", "electron_flux_cm2_s_mev"});
    for (std::size_t r = 0; r < map.n_lat(); r += 2) {
        for (std::size_t c = 0; c < map.n_lon(); c += 2) {
            csv.row({map.latitude_center_deg(r), map.longitude_center_deg(c),
                     map.field()(r, c)});
        }
    }

    // Structural probes.
    const auto at = [&](double lat, double lon) {
        return map.field()(map.row_of_latitude(lat), map.col_of_longitude(lon));
    };
    const double saa = at(-28.0, -45.0);
    const double north_band = at(62.0, 60.0);
    // The tilted dipole shifts the southern band's geographic latitude with
    // longitude; scan the -50..-75 band for its maximum.
    double south_band = 0.0;
    for (double lat = -75.0; lat <= -50.0; lat += 2.0)
        for (double lon = -180.0; lon < 180.0; lon += 4.0)
            south_band = std::max(south_band, at(lat, lon));
    const double trough = at(18.0, 60.0);
    const double pacific_low = at(-20.0, -170.0);

    std::cout << "\nsaa_flux=" << saa << "\nnorth_band_flux=" << north_band
              << "\nsouth_band_flux=" << south_band << "\ntrough_flux=" << trough
              << "\npacific_low_flux=" << pacific_low << "\n\n";

    // Paper Fig. 6 structures: SAA over South America/South Atlantic plus
    // outer-belt bands at moderate-to-high latitudes in both hemispheres.
    bench::check("SAA is a hotspot over the South Atlantic", saa > 4.0 * trough);
    bench::check("northern outer-belt band present", north_band > 2.0 * trough);
    bench::check("southern outer-belt band present", south_band > 2.0 * trough);
    bench::check("low-latitude Pacific is quiet", pacific_low < saa / 4.0);

    std::cout << "elapsed_s=" << timer.seconds() << "\n";
    return bench::exit_status();
}
