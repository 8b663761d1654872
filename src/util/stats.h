// Descriptive statistics over samples.
#ifndef SSPLANE_UTIL_STATS_H
#define SSPLANE_UTIL_STATS_H

#include <cstddef>
#include <span>

namespace ssplane {

/// Arithmetic mean; 0 for an empty sample.
double mean(std::span<const double> xs) noexcept;

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
double stddev(std::span<const double> xs) noexcept;

/// Smallest element; 0 for an empty sample.
double min_value(std::span<const double> xs) noexcept;

/// Largest element; 0 for an empty sample.
double max_value(std::span<const double> xs) noexcept;

/// Linear-interpolated percentile, p in [0, 100]. Copies and sorts.
double percentile(std::span<const double> xs, double p);

/// Linear-interpolated percentile over an already ascending-sorted sample —
/// callers that need several percentiles of one sample sort once and avoid
/// the per-call copy+sort of `percentile`. p in [0, 100]; 0 for empty input.
double percentile_sorted(std::span<const double> sorted, double p);

/// Median (50th percentile).
double median(std::span<const double> xs);

/// Summary of a sample, computed in one pass over a sorted copy.
struct sample_summary {
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double p25 = 0.0;
    double median = 0.0;
    double p75 = 0.0;
    double p95 = 0.0;
    double max = 0.0;
};

/// Compute all summary statistics for a sample.
sample_summary summarize(std::span<const double> xs);

/// Pearson correlation coefficient of two equal-length samples. Requires
/// xs.size() == ys.size(); 0 when fewer than 2 samples or when either
/// sample is constant (no variance to correlate against).
double pearson_correlation(std::span<const double> xs, std::span<const double> ys);

} // namespace ssplane

#endif // SSPLANE_UTIL_STATS_H
