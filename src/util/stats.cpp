#include "util/stats.h"

#include <algorithm>
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

} // namespace ssplane
