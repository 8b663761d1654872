#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/expects.h"

namespace ssplane {

double mean(std::span<const double> xs) noexcept
{
    if (xs.empty()) return 0.0;
    double sum = 0.0;
    for (double x : xs) sum += x;
    return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept
{
    if (xs.size() < 2) return 0.0;
    const double m = mean(xs);
    double ss = 0.0;
    for (double x : xs) ss += (x - m) * (x - m);
    return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double min_value(std::span<const double> xs) noexcept
{
    if (xs.empty()) return 0.0;
    return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) noexcept
{
    if (xs.empty()) return 0.0;
    return *std::max_element(xs.begin(), xs.end());
}

double percentile_sorted(std::span<const double> sorted, double p)
{
    expects(p >= 0.0 && p <= 100.0, "percentile p must be in [0, 100]");
    const auto n = sorted.size();
    if (n == 0) return 0.0;
    if (n == 1) return sorted[0];
    const double rank = (p / 100.0) * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, n - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double percentile(std::span<const double> xs, double p)
{
    expects(p >= 0.0 && p <= 100.0, "percentile p must be in [0, 100]");
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    return percentile_sorted(sorted, p);
}

double median(std::span<const double> xs)
{
    return percentile(xs, 50.0);
}

sample_summary summarize(std::span<const double> xs)
{
    sample_summary s;
    s.count = xs.size();
    if (xs.empty()) return s;
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    s.mean = mean(xs);
    s.stddev = stddev(xs);
    s.min = sorted.front();
    s.max = sorted.back();
    s.p25 = percentile_sorted(sorted, 25.0);
    s.median = percentile_sorted(sorted, 50.0);
    s.p75 = percentile_sorted(sorted, 75.0);
    s.p95 = percentile_sorted(sorted, 95.0);
    return s;
}

double pearson_correlation(std::span<const double> xs, std::span<const double> ys)
{
    expects(xs.size() == ys.size(),
            "pearson_correlation needs equal-length samples");
    const std::size_t n = xs.size();
    if (n < 2) return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0) return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

} // namespace ssplane
