// Wall and process-CPU clocks of the campaign benchmark.
#ifndef CAMPAIGN_BENCH_TIMING_H
#define CAMPAIGN_BENCH_TIMING_H

#include <chrono>
#include <ctime>

namespace bench {

using clock_type = std::chrono::steady_clock;

inline double seconds_since(clock_type::time_point start)
{
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// CPU seconds consumed by every thread of this process so far.
inline double process_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1.0e-9 * static_cast<double>(ts.tv_nsec);
}

} // namespace bench

#endif // CAMPAIGN_BENCH_TIMING_H
