// Ablation A2: survivability — in-orbit spares needed per plane to hold an
// availability target under radiation-driven failures, for the WD
// inclination mix vs the sun-synchronous design (paper §2.1, §5(2)). A
// search that misses its target within the 32-spare cap prints "unmet" and
// fails the checks.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "lsn/failures.h"
#include "radiation/fluence.h"
#include "util/angles.h"
#include "util/csv.h"

using namespace ssplane;

int main()
{
    bench::stopwatch timer;
    std::cout << "# Ablation: spares per plane vs orbit radiation environment\n\n";

    const radiation::radiation_environment env;
    const auto day = astro::instant::from_calendar(2014, 3, 15);

    struct orbit_case {
        const char* name;
        double inclination_deg;
    };
    const orbit_case cases[] = {
        {"wd_30deg", 30.0}, {"wd_53deg", 53.0}, {"wd_65deg", 65.0}, {"ss_97.6deg", 97.604}};

    csv_writer csv(std::cout,
                   {"orbit", "electron_fluence_per_day", "annual_failure_rate",
                    "spares_for_99.5", "spares_for_99.9", "expected_failures_5yr"});

    const auto spares_text = [](const lsn::sparing_result& result) {
        return result.target_met ? format_number(result.spares) : std::string("unmet");
    };
    int ss_spares = -1;
    int wd65_spares = -1;
    double ss_rate = 0.0;
    double wd65_rate = 0.0;
    bool all_met = true;
    for (const auto& c : cases) {
        const auto fluence =
            radiation::daily_fluence(env, 560.0e3, deg2rad(c.inclination_deg), day, 0.0,
                                     30.0);
        const double rate = lsn::annual_failure_rate(fluence.electrons_cm2_mev);
        const auto s995 = lsn::spares_for_availability(25, rate, 0.995, 7, 256);
        const auto s999 = lsn::spares_for_availability(25, rate, 0.999, 7, 256);
        csv.row_text({c.name, format_number(fluence.electrons_cm2_mev, 4),
                      format_number(rate, 4), spares_text(s995), spares_text(s999),
                      format_number(s999.expected_failures_per_plane, 4)});
        all_met = all_met && s995.target_met && s999.target_met;
        if (c.inclination_deg > 90.0) {
            ss_spares = s999.spares;
            ss_rate = rate;
        }
        if (c.inclination_deg == 65.0) {
            wd65_spares = s999.spares;
            wd65_rate = rate;
        }
    }
    std::cout << "\n";

    bench::check("every availability target is met within the spare cap", all_met);
    bench::check("SS orbit fails less often than the 65-deg WD orbit",
                 ss_rate < wd65_rate);
    bench::check("SS needs no more spares than the 65-deg WD plane",
                 ss_spares <= wd65_spares);
    bench::check("spare counts in the paper's 2-10 per-plane range",
                 ss_spares >= 0 && wd65_spares <= 10);

    std::cout << "elapsed_s=" << timer.seconds() << "\n";
    return bench::exit_status();
}
