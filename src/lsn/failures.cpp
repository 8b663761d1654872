#include "lsn/failures.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "util/expects.h"
#include "util/rng.h"

namespace ssplane::lsn {

namespace {

constexpr double spare_drift_days = 3.0;  ///< Hot-swap time when a spare exists.
constexpr double launch_lead_days = 60.0; ///< Restock time when spares are exhausted.
constexpr double mission_years = 5.0;

} // namespace

double annual_failure_rate(double daily_electron_fluence) noexcept
{
    if (daily_electron_fluence <= 0.0) return 0.0;
    return base_annual_failure_rate * (daily_electron_fluence / reference_electron_fluence);
}

sparing_result simulate_plane_availability(int sats_per_plane, int spares,
                                           double annual_rate, std::uint64_t seed,
                                           int n_trials)
{
    expects(sats_per_plane > 0, "need at least one active slot");
    expects(spares >= 0, "spares must be non-negative");
    expects(annual_rate >= 0.0, "failure rate must be non-negative");
    expects(n_trials >= 1, "need at least one trial");

    const double mission_days = mission_years * 365.25;
    const double daily_rate = annual_rate / 365.25;

    rng root(seed);
    double downtime_sum = 0.0;   // slot-days of outage across trials
    double failures_sum = 0.0;

    for (int trial = 0; trial < n_trials; ++trial) {
        rng r = root.fork(static_cast<std::uint64_t>(trial) + 1);
        int spare_pool = spares;
        double slot_downtime = 0.0;
        int failures = 0;
        // Pending restock arrival times (launches), min-heap on arrival.
        std::priority_queue<double, std::vector<double>, std::greater<>> restocks;

        // Each active slot fails as an independent Poisson process; walk
        // events in time using the aggregate rate over active slots.
        double t = 0.0;
        while (t < mission_days && daily_rate > 0.0) {
            const double aggregate = daily_rate * sats_per_plane;
            t += r.exponential(aggregate);
            if (t >= mission_days) break;
            ++failures;

            // Apply any restocks that arrived before this failure.
            while (!restocks.empty() && restocks.top() <= t) {
                ++spare_pool;
                restocks.pop();
            }

            if (spare_pool > 0) {
                --spare_pool;
                slot_downtime += std::min(spare_drift_days, mission_days - t);
                // The consumed spare is replaced by a launch.
                restocks.push(t + launch_lead_days);
            } else {
                slot_downtime += std::min(launch_lead_days, mission_days - t);
            }
        }
        downtime_sum += slot_downtime;
        failures_sum += failures;
    }

    sparing_result result;
    result.spares = spares;
    const double slot_days = mission_days * sats_per_plane * n_trials;
    result.availability = 1.0 - downtime_sum / slot_days;
    result.expected_failures_per_plane = failures_sum / n_trials;
    return result;
}

sparing_result spares_for_availability(int sats_per_plane, double annual_rate,
                                       double target_availability, std::uint64_t seed,
                                       int n_trials)
{
    expects(target_availability > 0.0 && target_availability < 1.0,
            "target availability must be in (0, 1)");
    sparing_result last;
    for (int spares = 0; spares <= 32; ++spares) {
        last = simulate_plane_availability(sats_per_plane, spares, annual_rate, seed,
                                           n_trials);
        if (last.availability >= target_availability) {
            last.target_met = true;
            return last;
        }
    }
    return last; // target unreachable even at the cap: target_met stays false
}

} // namespace ssplane::lsn
