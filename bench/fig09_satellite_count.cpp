// Paper Figure 9: satellites required to satisfy the spatiotemporal demand
// grid vs bandwidth multiplier — SS-plane greedy vs multi-shell
// Walker-delta (strict one-capacity-per-shell reading, plus the generous
// overlap-credit variant; see DESIGN.md/EXPERIMENTS.md).
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/evaluator.h"
#include "util/csv.h"
#include "util/table.h"

using namespace ssplane;

int main()
{
    bench::stopwatch timer;
    std::cout << "# Figure 9: satellite count vs bandwidth multiplier (560 km)\n\n";

    const auto& model = bench::paper_demand();
    core::walker_baseline_designer wd_strict; // default options
    core::wd_baseline_options credit_opts;
    credit_opts.credit_overlap_capacity = true;
    core::walker_baseline_designer wd_credit(credit_opts);

    const std::vector<double> multipliers{10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0};
    csv_writer csv(std::cout, {"bandwidth_multiplier", "ss_satellites", "ss_planes",
                               "wd_satellites", "wd_shells", "wd_credit_satellites",
                               "ratio_wd_over_ss", "ratio_credit_over_ss"});

    double first_ratio = 0.0;
    double last_ratio = 0.0;
    double first_credit_ratio = 0.0;
    double last_credit_ratio = 0.0;
    bool ss_always_below = true;

    for (double b : multipliers) {
        const auto problem = core::make_design_problem(model, b);
        const auto ss = core::greedy_ss_cover(problem);
        const auto wd = wd_strict.design(problem);
        const auto wdc = wd_credit.design(problem);
        const double ratio = static_cast<double>(wd.total_satellites) /
                             std::max(1, ss.total_satellites);
        const double credit_ratio = static_cast<double>(wdc.total_satellites) /
                                    std::max(1, ss.total_satellites);
        csv.row({b, static_cast<double>(ss.total_satellites),
                 static_cast<double>(ss.planes.size()),
                 static_cast<double>(wd.total_satellites),
                 static_cast<double>(wd.shells.size()),
                 static_cast<double>(wdc.total_satellites), ratio, credit_ratio});
        if (first_ratio == 0.0) first_ratio = ratio;
        last_ratio = ratio;
        if (first_credit_ratio == 0.0) first_credit_ratio = credit_ratio;
        last_credit_ratio = credit_ratio;
        ss_always_below &= (ss.total_satellites < wd.total_satellites);
        std::cerr << "  B=" << b << " done (" << timer.seconds() << " s)\n";
    }

    std::cout << "\n";
    table_printer summary({"quantity", "paper", "measured"});
    summary.row({"SS below WD at all multipliers", "yes", ss_always_below ? "yes" : "no"});
    summary.row({"WD/SS ratio at B=10", "up to ~10x", format_number(first_ratio, 3)});
    summary.row({"WD/SS ratio at B=1000", "gap narrows", format_number(last_ratio, 3)});
    summary.row({"WD(credit)/SS at B=10", "-", format_number(first_credit_ratio, 3)});
    summary.row({"WD(credit)/SS at B=1000", "-", format_number(last_credit_ratio, 3)});
    summary.print(std::cout);
    std::cout << "\n";

    bench::check("SS always needs fewer satellites than WD (paper Fig. 9)",
                 ss_always_below);
    bench::check("SS advantage is large at low multipliers (>=1.3x)",
                 first_ratio >= 1.3);
    bench::check("overlap-credit WD variant is cheaper than strict WD",
                 last_credit_ratio <= last_ratio);
    bench::check("credit variant narrows the WD/SS gap (paper's convergence story)",
                 last_credit_ratio < first_ratio);

    std::cout << "elapsed_s=" << timer.seconds() << "\n";
    return bench::exit_status();
}
