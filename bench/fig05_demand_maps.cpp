// Paper Figure 5: spatiotemporal demand snapshots of the Northern
// Hemisphere at hours 0, 6, 12, 18 UT, expressed in the sun-fixed frame
// (longitude relative to the subsolar meridian).
#include <iostream>

#include "astro/sun.h"
#include "bench_util.h"
#include "util/angles.h"
#include "util/csv.h"

using namespace ssplane;

int main()
{
    bench::stopwatch timer;
    const auto& model = bench::paper_demand();
    const auto day_start = astro::instant::from_calendar(2015, 6, 1, 0);

    std::cout << "# Figure 5: Northern-hemisphere demand, sun-fixed frame\n";
    std::cout << "# 5-degree aggregation; sun_lon 0 = subsolar meridian\n\n";
    csv_writer csv(std::cout, {"hour_ut", "latitude_deg", "sun_relative_lon_deg",
                               "mean_demand"});

    // For the figure's "light vs dark" check: the right-hand side of each
    // panel is the early-morning quadrant (local 00-06), which stays dark;
    // midday-to-evening (local 12-24) stays bright.
    double early_morning_total = 0.0;
    double midday_evening_total = 0.0;

    for (int hour : {0, 6, 12, 18}) {
        const astro::instant t = day_start.plus_seconds(hour * 3600.0);
        const auto snap = model.snapshot(t);
        const double subsolar_lon = astro::subsolar(t).longitude_deg;

        // Aggregate onto 5 deg x 5 deg sun-relative bins, northern hemisphere.
        constexpr int n_lat = 18;  // 0..90 in 5 deg
        constexpr int n_lon = 72;  // -180..180 in 5 deg
        std::vector<double> sum(n_lat * n_lon, 0.0);
        std::vector<int> count(n_lat * n_lon, 0);
        for (std::size_t r = snap.row_of_latitude(0.0); r < snap.n_lat(); ++r) {
            const double lat = snap.latitude_center_deg(r);
            const int bi = std::min(n_lat - 1, static_cast<int>(lat / 5.0));
            for (std::size_t c = 0; c < snap.n_lon(); ++c) {
                const double sun_lon =
                    wrap_deg_180(snap.longitude_center_deg(c) - subsolar_lon);
                const int bj =
                    std::min(n_lon - 1, static_cast<int>((sun_lon + 180.0) / 5.0));
                sum[static_cast<std::size_t>(bi * n_lon + bj)] += snap.field()(r, c);
                count[static_cast<std::size_t>(bi * n_lon + bj)] += 1;
            }
        }
        for (int i = 0; i < n_lat; ++i) {
            for (int j = 0; j < n_lon; ++j) {
                const auto k = static_cast<std::size_t>(i * n_lon + j);
                if (count[k] == 0) continue;
                const double lat = 2.5 + 5.0 * i;
                const double lon = -177.5 + 5.0 * j;
                const double mean_demand = sum[k] / count[k];
                csv.row({static_cast<double>(hour), lat, lon, mean_demand});
                // Local solar time of this sun-relative longitude.
                const double lst = wrap_hours_24(12.0 + lon / 15.0);
                if (lst < 6.0) {
                    early_morning_total += mean_demand;
                } else if (lst >= 12.0) {
                    midday_evening_total += mean_demand / 2.0; // 12 h vs 6 h span
                }
            }
        }
    }

    std::cout << "\nearly_morning_total=" << early_morning_total
              << "\nmidday_evening_total_per6h=" << midday_evening_total
              << "\nbright_dark_ratio=" << midday_evening_total / early_morning_total
              << "\n\n";

    // The figure's visual: the early-morning quadrant stays dark while the
    // midday/evening side stays bright, at every snapshot hour.
    bench::check("early-morning quadrant much dimmer than midday/evening (light vs dark)",
                 midday_evening_total > 1.5 * early_morning_total);

    std::cout << "elapsed_s=" << timer.seconds() << "\n";
    return bench::exit_status();
}
