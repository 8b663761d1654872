#include "lsn/timeline.h"

#include <algorithm>

#include "util/expects.h"

namespace ssplane::lsn {

namespace {

int count_row(std::span<const std::uint8_t> row) noexcept
{
    return static_cast<int>(std::count_if(row.begin(), row.end(),
                                          [](std::uint8_t f) { return f != 0; }));
}

} // namespace

int failure_timeline::n_failed_at(int i) const
{
    return count_row(step(i));
}

int failure_timeline::final_n_failed() const noexcept
{
    if (n_steps == 0) return 0;
    return count_row(step(n_steps - 1));
}

failure_timeline failure_timeline::from_static_mask(std::vector<std::uint8_t> mask)
{
    failure_timeline timeline;
    if (mask.empty()) return timeline; // zero rows: no failures at any step
    timeline.n_satellites = static_cast<int>(mask.size());
    timeline.n_steps = 1;
    timeline.masks = std::move(mask);
    return timeline;
}

void validate(const failure_timeline& timeline, int n_satellites, int n_steps)
{
    expects(timeline.n_satellites >= 0 && timeline.n_steps >= 0,
            "timeline dimensions must be non-negative");
    expects(timeline.masks.size() ==
                static_cast<std::size_t>(timeline.n_steps) *
                    static_cast<std::size_t>(timeline.n_satellites),
            "timeline mask storage must be n_steps x n_satellites");
    expects(timeline.n_steps == 0 || timeline.n_satellites == n_satellites,
            "timeline satellite count mismatch");
    expects(timeline.is_static() || timeline.n_steps == n_steps,
            "a multi-row timeline needs one row per sweep step");
}

double first_time_below(std::span<const double> trace,
                        std::span<const double> offsets_s, double threshold)
{
    expects(trace.size() == offsets_s.size(),
            "trace needs one offset per entry");
    for (std::size_t i = 0; i < trace.size(); ++i)
        if (trace[i] < threshold) return offsets_s[i];
    return -1.0;
}

double recovery_headroom(std::span<const double> trace)
{
    if (trace.empty()) return 0.0;
    const double lowest = *std::min_element(trace.begin(), trace.end());
    return trace.back() - lowest;
}

} // namespace ssplane::lsn
