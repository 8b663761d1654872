// Ablation A3: networking over an SS design (paper §5) — routing latency
// between city pairs and per-station coverage fractions, compared against a
// uniform Walker shell of similar size. Each topology runs one unfailed
// scenario sweep; the pair rows read its all-pairs matrices.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/greedy_cover.h"
#include "lsn/scenario.h"
#include "util/angles.h"
#include "util/csv.h"

using namespace ssplane;

int main()
{
    bench::stopwatch timer;
    std::cout << "# Ablation: routing/coverage over SS vs Walker topologies\n\n";

    // SS design for a modest demand target.
    const auto problem = core::make_design_problem(bench::paper_demand(), 10.0);
    const auto design = core::greedy_ss_cover(problem);
    std::vector<constellation::ss_plane> planes;
    planes.reserve(design.planes.size());
    for (const auto& p : design.planes)
        planes.push_back({p.altitude_m, p.ltan_h, p.n_sats, 0.0});
    const auto epoch = astro::instant::from_calendar(2015, 6, 1, 0);
    const auto ss_topology = lsn::build_ss_topology(planes, epoch);

    // Walker comparator of similar satellite count.
    constellation::walker_parameters wp;
    wp.altitude_m = 560.0e3;
    wp.inclination_rad = deg2rad(65.0);
    wp.sats_per_plane = design.sats_per_plane;
    wp.n_planes = std::max<int>(3, static_cast<int>(design.planes.size()));
    wp.phasing_f = 1;
    const auto wd_topology = lsn::build_walker_grid_topology(wp);

    lsn::scenario_sweep_options sim;
    sim.duration_s = 6.0 * 3600.0;
    sim.step_s = 1200.0;
    const auto offsets = lsn::sweep_offsets(sim.duration_s, sim.step_s);
    const auto stations = lsn::default_ground_stations();

    const lsn::sweep_geometry ss_geometry(
        lsn::snapshot_builder(ss_topology, stations, epoch, sim.min_elevation_rad,
                              sim.max_isl_range_m),
        offsets);
    const lsn::sweep_geometry wd_geometry(
        lsn::snapshot_builder(wd_topology, stations, epoch, sim.min_elevation_rad,
                              sim.max_isl_range_m),
        offsets);
    const auto ss_sweep = lsn::run_scenario_sweep_timeline(ss_geometry, {});
    const auto wd_sweep = lsn::run_scenario_sweep_timeline(wd_geometry, {});

    struct pair_case {
        int a;
        int b;
        const char* name;
    };
    const pair_case pairs[] = {
        {0, 3, "NewYork-London"}, {7, 9, "Delhi-Tokyo"}, {2, 5, "SaoPaulo-Johannesburg"},
        {0, 10, "NewYork-Sydney"}};

    csv_writer csv(std::cout, {"topology", "pair", "reachable_fraction", "mean_latency_ms"});
    double ss_reach_sum = 0.0;
    for (const auto& p : pairs) {
        csv.row_text({"ss", p.name, format_number(ss_sweep.reachable(p.a, p.b), 4),
                      format_number(ss_sweep.mean_latency_ms(p.a, p.b), 5)});
        csv.row_text({"walker", p.name, format_number(wd_sweep.reachable(p.a, p.b), 4),
                      format_number(wd_sweep.mean_latency_ms(p.a, p.b), 5)});
        ss_reach_sum += ss_sweep.reachable(p.a, p.b);
    }

    // Coverage fractions per station under the SS design (the predictable
    // coverage variation the paper's research agenda highlights): the share
    // of steps at which a station links to at least one satellite.
    std::vector<int> covered_steps(stations.size(), 0);
    for (int step = 0; step < ss_geometry.n_steps(); ++step) {
        const auto snap = ss_geometry.snapshot(step);
        for (int g = 0; g < snap.n_ground; ++g)
            covered_steps[static_cast<std::size_t>(g)] +=
                !snap.arcs_of(snap.ground_node(g)).empty();
    }
    std::cout << "\n";
    csv_writer cov_csv(std::cout, {"station", "ss_coverage_fraction"});
    double equatorial_cov = 0.0;
    double high_lat_cov = 0.0;
    for (std::size_t g = 0; g < stations.size(); ++g) {
        const double frac = static_cast<double>(covered_steps[g]) /
                            static_cast<double>(offsets.size());
        cov_csv.row_text({stations[g].name, format_number(frac, 4)});
        if (stations[g].name == "Singapore") equatorial_cov = frac;
        if (stations[g].name == "Anchorage") high_lat_cov = frac;
    }
    std::cout << "\n";

    bench::check("SS topology routes most city pairs most of the time",
                 ss_reach_sum / 4.0 > 0.7);
    bench::check("SS coverage exists at both equatorial and high-latitude stations",
                 equatorial_cov > 0.3 && high_lat_cov > 0.3);

    std::cout << "elapsed_s=" << timer.seconds() << "\n";
    return bench::exit_status();
}
