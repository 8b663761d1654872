// Paper Figure 3: maximum population density over all longitudes per
// 0.5-degree latitude band (SEDAC-substitute gazetteer model).
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "util/csv.h"

using namespace ssplane;

int main()
{
    bench::stopwatch timer;
    const auto& pop = bench::population();

    std::cout << "# Figure 3: max population density by latitude (0.5 deg bins)\n\n";
    csv_writer csv(std::cout, {"latitude_deg", "max_density_per_km2"});
    const auto& profile = pop.max_density_by_latitude();
    const auto lats = pop.latitude_centers_deg();
    for (std::size_t r = 0; r < profile.size(); ++r) csv.row({lats[r], profile[r]});

    const auto it = std::max_element(profile.begin(), profile.end());
    const double peak_lat = lats[static_cast<std::size_t>(it - profile.begin())];

    std::cout << "\npeak_density_per_km2=" << *it << "\npeak_latitude_deg=" << peak_lat
              << "\ntotal_population_billions=" << pop.total_population() / 1e9 << "\n\n";

    // Paper Fig. 3 shape: peak ~6000 /km^2 near 24 N; poles empty;
    // clustering at intermediate latitudes.
    bench::check("peak density ~6000/km^2 (paper axis: 0..6000)",
                 *it > 4500.0 && *it < 8500.0);
    bench::check("peak latitude in the South-Asia band (paper: ~24 N)",
                 peak_lat > 18.0 && peak_lat < 32.0);
    bench::check("poles are empty", profile.front() < 1.0 && profile.back() < 1.0);
    bench::check("global total ~8 B people",
                 pop.total_population() > 7.0e9 && pop.total_population() < 9.0e9);

    std::cout << "elapsed_s=" << timer.seconds() << "\n";
    return bench::exit_status();
}
