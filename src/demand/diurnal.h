// Diurnal traffic model (CESNET-TimeSeries24 substitute).
//
// Two layers:
//   * canonical_diurnal_shape — the smooth median-normalized demand curve
//     used by the design algorithms (trough ~50% of median before dawn,
//     elevated through working/evening hours), and
//   * site_ensemble — a synthetic population of monitoring sites with
//     per-site phase/amplitude variation, weekday effects, lognormal noise
//     and heavy-tailed bursts, from which paper Fig. 4's median/p95
//     time-of-day statistics are computed the same way the paper computes
//     them from CESNET (normalize each site by its median, group by hour).
#ifndef SSPLANE_DEMAND_DIURNAL_H
#define SSPLANE_DEMAND_DIURNAL_H

#include <array>
#include <cstdint>

namespace ssplane::demand {

/// Smooth diurnal demand multiplier at local time `tod_h` (hours, wraps).
/// Normalized so the median over a uniform day equals 1.0.
double canonical_diurnal_shape(double tod_h) noexcept;

/// Peak value of the canonical shape over the day.
double canonical_diurnal_peak() noexcept;

/// Statistics of median-normalized site throughput by hour of day,
/// in percent of the site median (the units of paper Fig. 4).
struct tod_statistics {
    std::array<double, 24> median_percent{};
    std::array<double, 24> p95_percent{};
};

/// Size of the synthetic site ensemble. Every hourly sample carries
/// lognormal noise (σ 0.35 in log space) and, with probability 0.07, a
/// Pareto burst (minimum 4x, tail index 1.1, capped at 100x).
struct site_ensemble_options {
    int n_sites = 283;   ///< CESNET-TimeSeries24 site count.
    int n_days = 365;    ///< One year of hourly samples.
};

/// Synthetic ensemble of access-network monitoring sites.
class site_ensemble {
public:
    site_ensemble(const site_ensemble_options& options, std::uint64_t seed);

    /// Generate all samples and reduce to per-hour median/p95 across
    /// sites and days (each site normalized by its own median first).
    tod_statistics compute_tod_statistics() const;

private:
    site_ensemble_options options_;
    std::uint64_t seed_;
};

} // namespace ssplane::demand

#endif // SSPLANE_DEMAND_DIURNAL_H
