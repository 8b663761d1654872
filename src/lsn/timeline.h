// Time-correlated fault injection: the failure-timeline abstraction
// (ROADMAP "adversarial & environmental scenario generators").
//
// A one-shot `sample_failures` mask assumes the failure set is frozen for
// the whole sweep window. The processes that actually threaten a
// mega-constellation are time-correlated — debris cascades escalate,
// solar storms arrive mid-sweep, an adversary strikes on a schedule — so
// the sweep engines need a *per-step* failure mask. `failure_timeline` is
// that sequence: one mask row per sweep step, with a static mask as the
// single-row degenerate case (every step reads row 0). Every sweep engine
// (`lsn`, `traffic`, `tempo`, `serve`, `spectral`) takes a timeline; a
// caller holding a one-shot mask wraps it via `from_static_mask`, which
// reproduces the static-mask sweep byte-for-byte.
//
// Timelines are generated by the pluggable scenario processes in
// `lsn::sample_failure_timeline` (Kessler cascade, solar-storm epoch) and
// `traffic::generate_adversary_timeline` (greedy adversary — it needs the
// delivered-traffic oracle, which lives above `lsn`).
#ifndef SSPLANE_LSN_TIMELINE_H
#define SSPLANE_LSN_TIMELINE_H

#include <cstdint>
#include <span>
#include <vector>

#include "util/expects.h"

namespace ssplane::lsn {

/// Per-step failure mask sequence over a sweep time grid. Rows are
/// step-major (`masks[step * n_satellites + sat]`, nonzero = failed).
/// A timeline has zero rows (no failures at any step: the `none`
/// baseline), one row (a static mask every step reads: the
/// `sample_failures` case) or one row per sweep step.
struct failure_timeline {
    int n_satellites = 0;
    int n_steps = 0; ///< Mask rows stored: 0, 1, or the sweep's step count.
    std::vector<std::uint8_t> masks; ///< n_steps x n_satellites, step-major.

    /// True when every step reads the same mask (zero or one row).
    bool is_static() const noexcept { return n_steps <= 1; }

    /// The mask in force at sweep step `i`. Single-row timelines return
    /// row 0 for every step; zero-row timelines return an empty span (no
    /// failures); a multi-row timeline has no row outside [0, n_steps), so
    /// asking for one is a `contract_violation`.
    std::span<const std::uint8_t> step(int i) const
    {
        if (n_steps == 0) return {};
        expects(is_static() || (i >= 0 && i < n_steps),
                "timeline has no row for this step");
        const int row = is_static() ? 0 : i;
        return {masks.data() +
                    static_cast<std::size_t>(row) *
                        static_cast<std::size_t>(n_satellites),
                static_cast<std::size_t>(n_satellites)};
    }

    /// Failed satellites at step `i`.
    int n_failed_at(int i) const;

    /// Failed satellites in the final row — the scenario's total loss.
    int final_n_failed() const noexcept;

    /// Wrap a one-shot mask (possibly empty = no failures) as the
    /// degenerate static timeline every step of a sweep reads.
    static failure_timeline from_static_mask(std::vector<std::uint8_t> mask);
};

/// Reject, with a clear `contract_violation`, a timeline that is malformed
/// (negative dims, row/size mismatch) or does not fit a sweep of `n_steps`
/// steps over `n_satellites` satellites (rows of another width, or several
/// rows but not one per step). Every sweep checks its timeline with it.
void validate(const failure_timeline& timeline, int n_satellites, int n_steps);

/// First time at which `trace[i] < threshold`, read against the sweep
/// offsets (one offset per trace entry). Returns -1 when the trace never
/// drops below the threshold — e.g. "time to partition" of a giant-
/// component trace that never partitions.
double first_time_below(std::span<const double> trace,
                        std::span<const double> offsets_s, double threshold);

/// Recovery headroom of a degradation trace: final value minus the
/// minimum — how much the metric climbed back from its worst point.
/// 0 for empty traces and for monotone-degrading ones.
double recovery_headroom(std::span<const double> trace);

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_TIMELINE_H
