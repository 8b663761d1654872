// Delay-tolerant bulk-delivery sweeps along failure timelines — the
// store-and-forward companion to `traffic::run_traffic_sweep_timeline`
// (ROADMAP "time-expanded routing"). Each step's masked snapshot comes from
// the shared `lsn::sweep_geometry`, taken in parallel with per-step slots,
// so any `SSPLANE_THREADS` value reproduces the result bit-for-bit; the
// routing itself (`route_bulk_transfers`) is serial and deterministic.
#ifndef SSPLANE_TEMPO_BULK_SWEEP_H
#define SSPLANE_TEMPO_BULK_SWEEP_H

#include <span>
#include <vector>

#include "tempo/bulk_router.h"

namespace ssplane::tempo {

/// Full sweep output: the routing result plus sweep/scenario context.
struct bulk_sweep_result {
    bulk_route_result routing; ///< Per-request slots, totals, buffer marks.
    int n_steps = 0;
    int n_failed = 0; ///< Satellites removed by the scenario.
};

/// Route `requests` over the time-expanded graph of one failure timeline on
/// the geometry. The graph is built under the timeline (per-step link and
/// storage gating), so bulk volume must route *around* the failure process
/// as it unfolds.
bulk_sweep_result run_bulk_sweep_timeline(const lsn::sweep_geometry& geometry,
                                          const lsn::failure_timeline& timeline,
                                          std::span<const bulk_transfer_request> requests,
                                          const bulk_route_options& options = {});

/// The same timeline judged by the snapshot greedy replayed per epoch
/// under that step's mask (no onboard buffering): the comparison a
/// store-and-forward gain is measured against, no lower bound once
/// requests compete (see `bulk_router.h`).
bulk_sweep_result run_bulk_sweep_per_step_baseline_timeline(
    const lsn::sweep_geometry& geometry, const lsn::failure_timeline& timeline,
    std::span<const bulk_transfer_request> requests,
    const bulk_route_options& options = {});

/// Delivered-volume ratio of `scenario` to `baseline` (1 = no loss, < 1 =
/// volume lost to the failures, > 1 = impossible by construction). 0 when
/// the baseline delivered nothing.
double delivered_volume_ratio(const bulk_sweep_result& baseline,
                              const bulk_sweep_result& scenario);

} // namespace ssplane::tempo

#endif // SSPLANE_TEMPO_BULK_SWEEP_H
