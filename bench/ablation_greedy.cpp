// Ablation A1: the §4.2 greedy vs seeding variants and lower bounds, plus a
// demand-concentration sweep showing where the paper's "up to an order of
// magnitude" SS advantage lives (see EXPERIMENTS.md).
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "core/evaluator.h"
#include "util/csv.h"

using namespace ssplane;

namespace {

/// Raise the demand field to a power (renormalized to the same peak) to
/// sweep spatial/temporal concentration: gamma=1 is the paper's demand,
/// larger gamma approaches a point demand.
core::design_problem concentrated_problem(double multiplier, double gamma)
{
    auto problem = core::make_design_problem(bench::paper_demand(), multiplier);
    for (double& v : problem.demand.field().values()) {
        v = multiplier * std::pow(v / multiplier, gamma);
    }
    return problem;
}

} // namespace

int main()
{
    bench::stopwatch timer;
    std::cout << "# Ablation: greedy variants and demand concentration\n\n";

    // --- Seeding-rule ablation at B = 50 ---
    const auto problem = core::make_design_problem(bench::paper_demand(), 50.0);
    const auto bounds = core::ss_plane_lower_bounds(problem);

    csv_writer rules_csv(std::cout, {"rule", "planes", "satellites", "satisfied"});
    int greedy_planes = 0;
    int random_planes = 0;
    int worst_planes = 0;
    {
        const auto r = core::greedy_ss_cover(problem);
        greedy_planes = static_cast<int>(r.planes.size());
        rules_csv.row_text({"max_demand", format_number(greedy_planes),
                            format_number(r.total_satellites),
                            r.satisfied ? "1" : "0"});
    }
    {
        core::ss_design_options opts;
        opts.rule = core::seed_rule::random_cell;
        opts.seed = 7;
        const auto r = core::greedy_ss_cover(problem, opts);
        random_planes = static_cast<int>(r.planes.size());
        rules_csv.row_text({"random_cell", format_number(random_planes),
                            format_number(r.total_satellites),
                            r.satisfied ? "1" : "0"});
    }
    {
        core::ss_design_options opts;
        opts.rule = core::seed_rule::min_demand;
        const auto r = core::greedy_ss_cover(problem, opts);
        worst_planes = static_cast<int>(r.planes.size());
        rules_csv.row_text({"min_demand", format_number(worst_planes),
                            format_number(r.total_satellites),
                            r.satisfied ? "1" : "0"});
    }
    std::cout << "\nlower_bound_per_cell=" << bounds.per_cell_bound
              << "\nlower_bound_volume=" << bounds.volume_bound << "\n\n";

    // --- Concentration sweep at B = 50 ---
    core::walker_baseline_designer wd_designer;
    csv_writer conc_csv(std::cout, {"gamma", "ss_satellites", "wd_satellites",
                                    "ratio_wd_over_ss"});
    double ratio_gamma1 = 0.0;
    double ratio_gamma32 = 0.0;
    for (double gamma : {1.0, 2.0, 4.0, 8.0, 32.0}) {
        const auto p = concentrated_problem(50.0, gamma);
        const auto ss = core::greedy_ss_cover(p);
        const auto wd = wd_designer.design(p);
        const double ratio = static_cast<double>(wd.total_satellites) /
                             std::max(1, ss.total_satellites);
        conc_csv.row({gamma, static_cast<double>(ss.total_satellites),
                      static_cast<double>(wd.total_satellites), ratio});
        if (gamma == 1.0) ratio_gamma1 = ratio;
        if (gamma == 32.0) ratio_gamma32 = ratio;
    }
    std::cout << "\n";

    bench::check("greedy respects the per-cell lower bound",
                 greedy_planes >= bounds.best());
    // Finding: with swath-wide capacity masks the paper's max-demand rule is
    // not clearly better than random/min seeding (all rules must serve the
    // same demand volume); we only require it stays within 2x.
    bench::check("greedy within 2x of the alternative seedings",
                 greedy_planes <= 2.0 * std::min(random_planes, worst_planes) + 2);
    bench::check("SS advantage grows with demand concentration",
                 ratio_gamma32 > ratio_gamma1);
    bench::check("concentrated demand reaches >=4x advantage (paper: 'up to' 10x)",
                 ratio_gamma32 >= 4.0);

    std::cout << "elapsed_s=" << timer.seconds() << "\n";
    return bench::exit_status();
}
