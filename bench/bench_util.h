// Shared helpers for the figure-reproduction benches.
//
// Every bench prints:
//   * a CSV block with the series the paper plots (machine-readable),
//   * a human-readable summary table,
//   * "CHECK" lines asserting the paper's qualitative shape, so the bench
//     output doubles as a reproduction report; `main` returns
//     `exit_status()`, so any failed CHECK exits 1.
#ifndef SSPLANE_BENCH_BENCH_UTIL_H
#define SSPLANE_BENCH_BENCH_UTIL_H

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "demand/demand_model.h"
#include "demand/population.h"

namespace ssplane::bench {

/// Shared full-resolution population model (built once per process).
inline const demand::population_model& population()
{
    static const demand::population_model model;
    return model;
}

/// Shared paper-resolution demand model (0.5 deg x 15 min).
inline const demand::demand_model& paper_demand()
{
    static const demand::demand_model model(population());
    return model;
}

/// Set once any shape check of this process has failed.
inline bool& any_check_failed()
{
    static bool failed = false;
    return failed;
}

/// Print a PASS/FAIL shape-check line and remember a failure; returns `ok`
/// for aggregation.
inline bool check(const std::string& name, bool ok)
{
    std::cout << "CHECK " << (ok ? "PASS" : "FAIL") << ": " << name << "\n";
    if (!ok) any_check_failed() = true;
    return ok;
}

/// Exit status for a bench's `main`: 1 once any CHECK failed, else 0, so a
/// failed shape check fails the run (and its ctest leg).
inline int exit_status()
{
    return any_check_failed() ? 1 : 0;
}

/// Wall-clock stopwatch for bench timing lines.
class stopwatch {
public:
    stopwatch() : start_(std::chrono::steady_clock::now()) {}
    double seconds() const
    {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

/// Write benchmark timings as machine-readable JSON: {"name": ns_per_op, ...}.
/// Future PRs diff these files to track the perf trajectory.
inline bool write_bench_json(const std::string& path,
                             const std::vector<std::pair<std::string, double>>& ns_per_op)
{
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n";
    for (std::size_t i = 0; i < ns_per_op.size(); ++i) {
        out << "  \"" << ns_per_op[i].first << "\": " << ns_per_op[i].second
            << (i + 1 < ns_per_op.size() ? ",\n" : "\n");
    }
    out << "}\n";
    return static_cast<bool>(out);
}

} // namespace ssplane::bench

#endif // SSPLANE_BENCH_BENCH_UTIL_H
