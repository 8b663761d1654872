#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace bench {

namespace {

bool in_unit_interval(double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; }

bool not_above(double delivered, double offered)
{
    return delivered <= offered + 1.0e-9 * std::max(1.0, std::abs(offered));
}

bool is_fraction_column(const std::string& name)
{
    // Masking thresholds are fractions or the -1 "never collapsed" sentinel.
    return name.find("fraction") != std::string::npos &&
           name.find("masking_threshold") == std::string::npos;
}

} // namespace

campaign_check check_campaign(const exp::campaign_result& result)
{
    campaign_check check;
    const int n_rows = static_cast<int>(result.rows.size());
    check.cells = n_rows * result.n_engines;
    std::vector<char> hard(static_cast<std::size_t>(check.cells), 0);
    std::vector<char> lambda2(static_cast<std::size_t>(check.cells), 0);
    const auto flag = [&](std::vector<char>& set, int row, int engine,
                          const std::string& what) {
        set[static_cast<std::size_t>(row * result.n_engines + engine)] = 1;
        check.messages.push_back(result.rows[static_cast<std::size_t>(row)].name + " / " +
                                 result.engine_names[static_cast<std::size_t>(engine)] +
                                 ": " + what);
    };
    const auto index_of = [&](const std::string& name) {
        for (int e = 0; e < result.n_engines; ++e)
            if (result.engine_names[static_cast<std::size_t>(e)] == name) return e;
        return -1;
    };

    for (int r = 0; r < n_rows; ++r) {
        for (int e = 0; e < result.n_engines; ++e) {
            const auto& engine = *result.engines[static_cast<std::size_t>(e)];
            const auto& cell = result.cell(r, e);
            for (std::size_t c = 0; c < engine.columns().size(); ++c)
                if (is_fraction_column(engine.columns()[c]) &&
                    !in_unit_interval(cell.values[c]))
                    flag(hard, r, e, engine.columns()[c] + " outside [0, 1]");
            const auto traces = engine.step_traces(cell);
            for (std::size_t c = 0; c < traces.size(); ++c) {
                if (!is_fraction_column(engine.step_columns()[c])) continue;
                for (const double v : traces[c])
                    if (!in_unit_interval(v)) {
                        flag(hard, r, e, "step " + engine.step_columns()[c] +
                                             " outside [0, 1]");
                        break;
                    }
            }
            const auto column = [&](const std::string& name) {
                for (std::size_t c = 0; c < engine.columns().size(); ++c)
                    if (engine.columns()[c] == name) return cell.values[c];
                return 0.0;
            };
            const std::string& name = engine.name();
            if ((name == "traffic" || name == "serving") &&
                !not_above(column("delivered_gbps_mean"), column("offered_gbps_mean")))
                flag(hard, r, e, "delivered_gbps_mean above offered_gbps_mean");
            if ((name == "bulk" || name == "bulk_per_step") &&
                !not_above(column("delivered_gb"), column("offered_gb")))
                flag(hard, r, e, "delivered_gb above offered_gb");
        }

        const int perc = index_of("percolation");
        if (perc < 0) continue;
        const auto& p = exp::percolation_engine::detail(result.cell(r, perc));
        const int surv = index_of("survivability");
        if (surv >= 0) {
            const auto& giant =
                exp::survivability_engine::detail(result.cell(r, surv)).step_giant_fraction;
            bool same = giant.size() == p.step_giant_fraction.size();
            for (std::size_t i = 0; same && i < giant.size(); ++i)
                same = std::abs(giant[i] - p.step_giant_fraction[i]) <= 1.0e-12;
            if (!same)
                flag(hard, r, perc, "per-step giant fraction differs from survivability");
        }
        int bad_steps = 0;
        for (std::size_t i = 0; i < p.step_lambda2.size(); ++i)
            if (p.step_lambda2[i] > lambda2_zero && p.step_susceptibility[i] > 0.0)
                ++bad_steps;
        if (bad_steps > 0)
            flag(lambda2, r, perc,
                 "lambda2 > 0 on " + std::to_string(bad_steps) +
                     " disconnected step(s)");
    }

    for (int i = 0; i < check.cells; ++i) {
        check.hard_failures += hard[static_cast<std::size_t>(i)];
        check.lambda2_violations += lambda2[static_cast<std::size_t>(i)];
        check.invalid_cells +=
            hard[static_cast<std::size_t>(i)] | lambda2[static_cast<std::size_t>(i)];
    }
    return check;
}

std::string csv_digest(const exp::campaign_result& result)
{
    std::ostringstream csv;
    result.write_csv(csv);
    result.write_step_csv(csv);
    std::uint64_t hash = 1469598103934665603ULL;
    for (const char ch : csv.str()) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 1099511628211ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
    return hex;
}

} // namespace bench
