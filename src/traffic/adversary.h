// Greedy adversary timeline generator — the attacker's half of the
// time-correlated fault-injection layer (ROADMAP "adversarial &
// environmental scenario generators").
//
// A budgeted adversary kills whole orbital planes on a strike schedule,
// picking each victim by *marginal delivered-traffic damage*: the
// surviving plane whose loss leaves the least delivered throughput,
// averaged over a (possibly stride-subsampled) planning grid of sweep
// steps, dies. The generator lives in `traffic` rather than `lsn` because
// it needs this delivered-traffic oracle — `lsn` sits below the
// flow-assignment layer and cannot see it.
//
// Every surviving plane is scored exactly, but flows are re-assigned only
// where a plane can matter, and only from the first tree it can change.
// Each strike:
//   1. assigns flows once per planning step under the current mask, which
//      also records every tree it ran and the paths each one queried
//      (`flow_result::routes`);
//   2. trial-assigns, in one flat `parallel_map`, only the (surviving
//      plane, step) pairs whose plane has a satellite on such a path;
//      every other pair scores exactly the base step's delivered Gbps.
//      Each trial replays its step's base record (`route_replay`): it takes
//      the base's trees until the first one the plane's loss could change,
//      and runs the rest;
//   3. sums each plane's score serially in step order and takes the argmin
//      in plane order, the lowest index winning ties.
// The pruning rule and the replay are exact under three preconditions,
// each pinned by tests against the exhaustive per-plane search and a fresh
// assignment per trial:
//   * Dijkstra settles nodes in (latency, node id) order with strict-<
//     relaxation, so deleting nodes that lie on none of a tree's queried
//     paths changes none of those paths — by induction over the pairs and
//     rounds, the link loads, and so the whole assignment, stay the same;
//   * a failure mask only deletes the failed satellites' links, keeping
//     the survivors in link order (`lsn::sweep_geometry::snapshot`);
//   * the score is the same step-ordered sum `run_traffic_sweep_timeline`
//     averages for the trial mask as a static timeline.
// The search draws no random numbers and reduces serially, so repeated
// runs and any `SSPLANE_THREADS` value produce one timeline bit-for-bit.
#ifndef SSPLANE_TRAFFIC_ADVERSARY_H
#define SSPLANE_TRAFFIC_ADVERSARY_H

#include "lsn/scenario.h"
#include "traffic/traffic_sweep.h"

namespace ssplane::traffic {

/// Evolve the greedy adversary's per-step failure timeline. The scenario's
/// mode must be `greedy_adversary`; its knobs set the budget (whole planes
/// killed), the strike schedule (`adversary_first_strike_step`, then every
/// `adversary_strike_interval_steps`) and the planning grid subsampling
/// (`adversary_eval_stride`). Each strike costs one assignment per
/// planning step plus one per unpruned (plane, step) pair — at most
/// planes x (steps / stride) — counted by `traffic.adversary.trials`, with
/// the pairs scored from the base counted by `traffic.adversary.pruned` and
/// the trees trials took from their base's record by
/// `traffic.adversary.reused_trees`.
/// The sweep steps the stride leaves off the planning grid are counted by
/// `traffic.adversary.unplanned_steps`. Strikes scheduled past the sweep
/// horizon are dropped: the budget buys strikes only inside the window.
/// `options` are validated before any fan-out.
lsn::failure_timeline generate_adversary_timeline(
    const lsn::sweep_geometry& geometry, const lsn::failure_scenario& scenario,
    const demand::demand_model& demand, const traffic_sweep_options& options = {});

} // namespace ssplane::traffic

#endif // SSPLANE_TRAFFIC_ADVERSARY_H
