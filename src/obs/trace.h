// Phase-span tracer: RAII scopes recording per-thread begin/end timestamps,
// flushed on demand to Chrome trace-event JSON (chrome://tracing or
// https://ui.perfetto.dev) and to an aggregated per-phase wall/self-time
// table.
//
// Spans are runtime-gated: nothing is recorded unless tracing is enabled
// (SSPLANE_TRACE=1 in the environment, or set_tracing_enabled(true)), and a
// disabled OBS_SPAN costs one relaxed atomic load. Each thread appends to
// its own buffer behind a thread-local pointer, so recording never contends
// across threads; the buffer's own mutex is only ever contended by a
// concurrent flush. Timestamps come from the one sanctioned wall-clock
// module, obs/clock.h — spans measure the run, they never feed results, so
// the determinism contract is untouched.
//
// Configuring with -DSSPLANE_OBS=OFF compiles OBS_SPAN to nothing; the
// flush/inspection API stays linkable and reports an empty trace.
#ifndef SSPLANE_OBS_TRACE_H
#define SSPLANE_OBS_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"

namespace ssplane::obs {

/// Runtime gate. Initialised once from the SSPLANE_TRACE environment
/// variable (any non-empty value other than "0" enables).
bool tracing_enabled() noexcept;
void set_tracing_enabled(bool enabled) noexcept;

/// One completed scope as stored in a thread buffer.
struct trace_span {
    std::string name;
    std::uint32_t tid = 0; ///< Stable per-thread id (registration order, from 1).
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
};

/// Append a completed span to the calling thread's buffer regardless of the
/// runtime gate — the gate belongs to the `span` RAII type. Direct calls
/// exist for tests, which inject synthetic timestamps to get deterministic
/// traces. Spans of one thread must nest (RAII scopes guarantee this).
void record_span(std::string name, std::uint64_t begin_ns, std::uint64_t end_ns);

/// RAII phase scope: captures now_ns() at construction and destruction when
/// tracing is enabled, otherwise does nothing.
class span {
public:
    explicit span(std::string_view name)
    {
        if (tracing_enabled()) {
            name_ = name;
            begin_ns_ = now_ns();
            armed_ = true;
        }
    }
    ~span()
    {
        if (armed_) record_span(std::move(name_), begin_ns_, now_ns());
    }
    span(const span&) = delete;
    span& operator=(const span&) = delete;

private:
    std::string name_;
    std::uint64_t begin_ns_ = 0;
    bool armed_ = false;
};

/// Every recorded span from every thread, sorted by (tid, begin asc, end
/// desc, name) — parents before their children.
std::vector<trace_span> trace_snapshot();

/// Drop every recorded span (thread buffers stay registered).
void trace_reset();

/// Chrome trace-event JSON of the current spans: one balanced B/E pair per
/// span with pid/tid/ts(µs) fields, loadable by chrome://tracing and
/// Perfetto.
void write_chrome_trace(std::ostream& out);

/// Aggregated per-phase timing: wall = sum of span durations of this name,
/// self = wall minus time spent in directly nested spans (any name).
struct phase_stat {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t self_ns = 0;
};

/// Per-name aggregation of the current spans, sorted by wall time
/// descending (ties by name).
std::vector<phase_stat> phase_stats();

/// One campaign phase span — the whole `campaign.run`, a
/// `campaign.prefetch_timelines` (one per pass of timeline resolution),
/// `campaign.cells` (the final join of the cell tasks) or a
/// `campaign.batch.<engine>` — and how busy each pool worker was while it
/// ran.
struct phase_busy {
    std::string name;
    std::uint64_t begin_ns = 0;
    std::uint64_t wall_ns = 0;
    /// Summed overlap of every worker's `pool.task` spans with this span:
    /// the pool's CPU time in it, next to its critical-path wall time.
    std::uint64_t task_ns = 0;
    /// Per pool worker (each thread with a `pool.task` span, by tid), the
    /// overlap of its `pool.task` spans with this span over its wall time.
    std::vector<double> worker_busy;
};

/// Every campaign phase span, in begin order (enclosing spans first, then
/// by name).
std::vector<phase_busy> phase_busy_fractions();

/// Human-readable table of phase_stats(): name, count, wall ms, self ms;
/// then, when the trace holds campaign phases, one row per phase span with
/// its wall ms, its summed `pool.task` ms and each pool worker's busy
/// percentage.
void write_phase_summary(std::ostream& out);

} // namespace ssplane::obs

#if defined(SSPLANE_OBS_DISABLED)
#define OBS_SPAN(name) ((void)0)
#else
#define OBS_SPAN_CONCAT_INNER(a, b) a##b
#define OBS_SPAN_CONCAT(a, b) OBS_SPAN_CONCAT_INNER(a, b)
/// Trace the enclosing scope as one span named `name`.
#define OBS_SPAN(name)                                                         \
    const ::ssplane::obs::span OBS_SPAN_CONCAT(obs_span_site_, __LINE__)(name)
#endif

#endif // SSPLANE_OBS_TRACE_H
