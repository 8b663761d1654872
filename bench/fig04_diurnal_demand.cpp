// Paper Figure 4: median and 95th-percentile of median-normalized site
// throughput as a function of local time of day (CESNET-TimeSeries24
// substitute: 283 synthetic sites x 1 year).
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "demand/diurnal.h"
#include "util/csv.h"

using namespace ssplane;

int main()
{
    bench::stopwatch timer;
    std::cout << "# Figure 4: demand vs local time of day (283 sites, 365 days)\n\n";

    demand::site_ensemble_options opts; // paper-scale defaults
    const demand::site_ensemble ensemble(opts, 2024);
    const auto stats = ensemble.compute_tod_statistics();

    csv_writer csv(std::cout, {"hour", "median_percent", "p95_percent"});
    for (int h = 0; h < 24; ++h)
        csv.row({static_cast<double>(h), stats.median_percent[h], stats.p95_percent[h]});

    const double med_min =
        *std::min_element(stats.median_percent.begin(), stats.median_percent.end());
    const double med_max =
        *std::max_element(stats.median_percent.begin(), stats.median_percent.end());
    const double p95_max =
        *std::max_element(stats.p95_percent.begin(), stats.p95_percent.end());
    const auto trough_hour = static_cast<int>(
        std::min_element(stats.median_percent.begin(), stats.median_percent.end()) -
        stats.median_percent.begin());

    std::cout << "\nmedian_min_percent=" << med_min << "\nmedian_max_percent=" << med_max
              << "\np95_max_percent=" << p95_max << "\ntrough_hour=" << trough_hour
              << "\n\n";

    // Paper Fig. 4: median ~50% pre-dawn up to ~150-200% peak; p95 reaches
    // several hundred percent (log axis to 10k%).
    bench::check("median trough ~50% of site median in the early morning",
                 med_min > 25.0 && med_min < 80.0 && trough_hour >= 2 && trough_hour <= 7);
    bench::check("median peak 110-300% in waking hours", med_max > 110.0 && med_max < 300.0);
    bench::check("p95 heavy tail reaches >300%", p95_max > 300.0 && p95_max < 20000.0);

    std::cout << "elapsed_s=" << timer.seconds() << "\n";
    return bench::exit_status();
}
