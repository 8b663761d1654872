// Descriptive statistics over samples.
#ifndef SSPLANE_UTIL_STATS_H
#define SSPLANE_UTIL_STATS_H

#include <span>

namespace ssplane {

/// Arithmetic mean; 0 for an empty sample.
double mean(std::span<const double> xs) noexcept;

/// Linear-interpolated percentile, p in [0, 100]. Copies and sorts.
double percentile(std::span<const double> xs, double p);

/// Linear-interpolated percentile over an already ascending-sorted sample —
/// callers that need several percentiles of one sample sort once and avoid
/// the per-call copy+sort of `percentile`. p in [0, 100]; 0 for empty input.
double percentile_sorted(std::span<const double> sorted, double p);

/// Median (50th percentile).
double median(std::span<const double> xs);

} // namespace ssplane

#endif // SSPLANE_UTIL_STATS_H
