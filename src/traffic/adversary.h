// Greedy adversary timeline generator — the attacker's half of the
// time-correlated fault-injection layer (ROADMAP "adversarial &
// environmental scenario generators").
//
// A budgeted adversary kills whole orbital planes on a strike schedule,
// picking each victim by *marginal delivered-traffic damage*: every
// surviving plane is trial-killed and scored through
// `traffic::run_traffic_sweep_timeline` (the trial mask as a static
// timeline) on a (possibly stride-subsampled) copy of the sweep grid; the
// plane whose loss leaves the least delivered throughput dies. The
// generator lives in `traffic` rather than `lsn`
// because it needs this delivered-traffic oracle — `lsn` sits below the
// flow-assignment layer and cannot see it.
//
// The search is entirely deterministic (no RNG): exhaustive candidate
// evaluation with lowest-plane-index tie-breaking, so repeated runs and
// any `SSPLANE_THREADS` value produce one timeline bit-for-bit.
#ifndef SSPLANE_TRAFFIC_ADVERSARY_H
#define SSPLANE_TRAFFIC_ADVERSARY_H

#include <span>
#include <vector>

#include "lsn/scenario.h"
#include "traffic/traffic_sweep.h"

namespace ssplane::traffic {

/// Evolve the greedy adversary's per-step failure timeline. The scenario's
/// mode must be `greedy_adversary`; its knobs set the budget (whole planes
/// killed), the strike schedule (`adversary_first_strike_step`, then every
/// `adversary_strike_interval_steps`) and the evaluation grid subsampling
/// (`adversary_eval_stride` — candidate scoring cost scales as
/// budget x planes x (steps / stride)). Strikes scheduled past the sweep
/// horizon are dropped: the budget buys strikes only inside the window.
lsn::failure_timeline generate_adversary_timeline(
    const lsn::snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_scenario& scenario, const demand::demand_model& demand,
    const traffic_sweep_options& options = {});

} // namespace ssplane::traffic

#endif // SSPLANE_TRAFFIC_ADVERSARY_H
