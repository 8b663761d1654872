// Full mission design walkthrough: given a bandwidth target, produce the
// SS-plane constellation plan (plane LTANs, satellite counts), compare it
// against the Walker-delta baseline, and report radiation and sparing.
//
// Usage: design_mission [--bandwidth=50] [--altitude-km=560] [--min-elev-deg=30]
//
// --bandwidth takes a number in [0.01, 100], --altitude-km one in [300, 2000]
// and --min-elev-deg one in [0, 60]; anything else exits 2 before the design
// runs, printing nothing on stdout. A spare count whose search missed the
// 99.9% target within its cap prints as "unmet".
#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/evaluator.h"
#include "lsn/failures.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/table.h"

using namespace ssplane;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    double bandwidth = 0.0;
    double altitude_m = 0.0;
    double min_elev = 0.0;
    try {
        bandwidth = args.get_double("bandwidth", 50.0, 0.01, 100.0);
        altitude_m = args.get_double("altitude-km", 560.0, 300.0, 2000.0) * 1000.0;
        min_elev = deg2rad(args.get_double("min-elev-deg", 30.0, 0.0, 60.0));
    } catch (const std::invalid_argument& error) {
        std::cerr << "design_mission: " << error.what() << "\n";
        return 2;
    }

    std::cout << "=== SS-plane mission design ===\n"
              << "bandwidth multiplier: " << bandwidth
              << ", altitude: " << altitude_m / 1000.0 << " km\n\n";

    const demand::population_model population;
    const demand::demand_model demand(population);
    const auto problem = core::make_design_problem(demand, bandwidth, altitude_m, min_elev);

    // --- SS design ---
    const auto design = core::greedy_ss_cover(problem);
    std::cout << "SS design: " << design.planes.size() << " planes x "
              << design.sats_per_plane << " satellites = " << design.total_satellites
              << " total (demand satisfied: " << (design.satisfied ? "yes" : "no")
              << ")\n\n";

    // LTAN histogram of the plan (which local times the fleet occupies).
    std::vector<int> ltan_histogram(24, 0);
    for (const auto& p : design.planes)
        ltan_histogram[static_cast<std::size_t>(p.ltan_h)]++;
    table_printer ltan_table({"LTAN bin", "planes"});
    for (int h = 0; h < 24; ++h) {
        if (ltan_histogram[static_cast<std::size_t>(h)] == 0) continue;
        ltan_table.row({format_number(h) + ":00-" + format_number(h + 1) + ":00",
                        format_number(ltan_histogram[static_cast<std::size_t>(h)])});
    }
    ltan_table.print(std::cout);

    // --- Walker baseline ---
    core::walker_baseline_designer wd_designer;
    const auto baseline = wd_designer.design(problem);
    std::cout << "\nWalker-delta baseline: " << baseline.shells.size() << " shells, "
              << baseline.total_satellites << " satellites\n";
    if (!baseline.shells.empty()) {
        table_printer shells({"shell", "altitude_km", "inclination_deg", "planes",
                              "sats/plane"});
        const std::size_t show = std::min<std::size_t>(baseline.shells.size(), 6);
        for (std::size_t i = 0; i < show; ++i) {
            const auto& s = baseline.shells[i];
            shells.row({format_number(i + 1), format_number(s.altitude_m / 1000.0, 6),
                        format_number(rad2deg(s.parameters.inclination_rad), 4),
                        format_number(s.parameters.n_planes),
                        format_number(s.parameters.sats_per_plane)});
        }
        shells.print(std::cout);
        if (baseline.shells.size() > show)
            std::cout << "  ... and " << baseline.shells.size() - show
                      << " more shells\n";
    }

    // --- Radiation & sparing ---
    const radiation::radiation_environment env;
    const auto day = astro::instant::from_calendar(2014, 3, 15);
    core::radiation_eval_options rad;
    rad.step_s = 30.0;
    const auto ss_rad = core::ss_constellation_radiation(design, env, day, rad);
    const auto wd_rad = core::wd_constellation_radiation(baseline, env, day, rad);

    const double ss_rate = lsn::annual_failure_rate(ss_rad.median_electron_fluence);
    const double wd_rate = lsn::annual_failure_rate(wd_rad.median_electron_fluence);
    const auto ss_spares =
        lsn::spares_for_availability(design.sats_per_plane, ss_rate, 0.999, 1);
    const auto wd_spares = lsn::spares_for_availability(
        baseline.shells.empty() ? 20 : baseline.shells[0].parameters.sats_per_plane,
        wd_rate, 0.999, 1);

    std::cout << "\n";
    table_printer cmp({"metric", "SS design", "WD baseline"});
    cmp.row({"satellites", format_number(design.total_satellites),
             format_number(baseline.total_satellites)});
    cmp.row({"median e- fluence (1/cm^2/MeV/day)",
             format_number(ss_rad.median_electron_fluence, 4),
             format_number(wd_rad.median_electron_fluence, 4)});
    cmp.row({"annual failure rate", format_number(ss_rate, 4),
             format_number(wd_rate, 4)});
    const auto spares_text = [](const lsn::sparing_result& result) {
        return result.target_met ? format_number(result.spares) : std::string("unmet");
    };
    cmp.row({"spares/plane for 99.9%", spares_text(ss_spares), spares_text(wd_spares)});
    cmp.print(std::cout);

    std::cout << "\nsatellite saving: "
              << 100.0 * (1.0 - static_cast<double>(design.total_satellites) /
                                    baseline.total_satellites)
              << "%  |  electron-dose saving: "
              << 100.0 * (1.0 - ss_rad.median_electron_fluence /
                                    wd_rad.median_electron_fluence)
              << "%\n";
    return 0;
}
