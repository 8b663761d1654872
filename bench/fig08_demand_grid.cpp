// Paper Figure 8: spatiotemporal demand as a function of latitude and local
// time of day (% of the maximum cell).
#include <iostream>

#include "bench_util.h"
#include "util/csv.h"

using namespace ssplane;

int main()
{
    bench::stopwatch timer;
    std::cout << "# Figure 8: sun-relative demand grid (percent of max)\n\n";

    const auto grid = bench::paper_demand().sun_relative_grid();

    // Emit at 2 deg x 0.5 h to keep the dump manageable.
    csv_writer csv(std::cout, {"latitude_deg", "tod_h", "demand_percent"});
    for (std::size_t r = 0; r < grid.n_lat(); r += 4) {
        for (std::size_t c = 0; c < grid.n_tod(); c += 2) {
            csv.row({grid.latitude_center_deg(r), grid.tod_center_h(c),
                     100.0 * grid.field()(r, c)});
        }
    }

    const auto peak = grid.field().argmax();
    const double peak_lat = grid.latitude_center_deg(peak.row);
    const double peak_tod = grid.tod_center_h(peak.col);

    // Demand mass by quadrant of the day.
    double day_mass = 0.0;   // 08-24 local
    double night_mass = 0.0; // 00-08 local
    for (std::size_t r = 0; r < grid.n_lat(); ++r) {
        for (std::size_t c = 0; c < grid.n_tod(); ++c) {
            const double tod = grid.tod_center_h(c);
            if (tod >= 8.0) {
                day_mass += grid.field()(r, c);
            } else {
                night_mass += grid.field()(r, c);
            }
        }
    }

    std::cout << "\npeak_latitude_deg=" << peak_lat << "\npeak_tod_h=" << peak_tod
              << "\nday_mass_over_night_mass=" << day_mass / (night_mass * 2.0)
              << "\n\n";

    // Paper Fig. 8: demand clusters at the populated latitudes and in
    // waking/evening hours.
    bench::check("peak cell in the South-Asia latitude band",
                 peak_lat > 18.0 && peak_lat < 32.0);
    bench::check("peak cell in waking/evening hours", peak_tod > 9.0 && peak_tod < 23.0);
    bench::check("waking hours (2/3 of day) carry > 2/3 of demand mass",
                 day_mass / (day_mass + night_mass) > 2.0 / 3.0);

    std::cout << "elapsed_s=" << timer.seconds() << "\n";
    return bench::exit_status();
}
