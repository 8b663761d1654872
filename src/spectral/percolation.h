// Percolation & phase-transition analysis of LSN robustness (ROADMAP
// "percolation & robustness analysis suite"; SNIPPETS walker-percolation
// exemplar).
//
// The survivability sweeps report *service* metrics (reachability,
// delivered throughput); this module reports the *structural* quantities
// underneath, the ones that move sharply at a percolation transition:
//
//   * giant-component fraction (GCC) — union-find over the alive ISL
//     subgraph, reported both against all satellites (raw loss included)
//     and against survivors only (pure fragmentation);
//   * susceptibility χ — Σ (finite-cluster sizes)² / n_satellites, the
//     classic transition detector: χ spikes where the giant component
//     shatters into many mid-sized fragments;
//   * global clustering coefficient — closed / connected triplets of the
//     alive subgraph;
//   * algebraic connectivity λ₂ — exactly 0 when union-find already found
//     more than one alive component, else through the Lanczos solver
//     (`spectral/lanczos.h`), with its convergence carried alongside;
//   * the masking threshold — the failure fraction at which redundancy
//     stops concealing targeted-attack damage: escalate the attack
//     fraction step by step until λ₂/GCC collapse.
//
// Everything is deterministic: union-find and triangle counting are
// serial walks in index order, masks come from `lsn::sample_failures` on
// explicit seeds, and the per-step timeline sweep uses per-step result
// slots so any SSPLANE_THREADS value is bit-identical. Every analysis reads
// one `alive_graph` (`spectral/laplacian.h`), the survivors' ISL graph as
// built; the sweep analyzes each distinct graph of a timeline once and
// copies its metrics to the steps that repeat it: the Lanczos start
// vector depends only on `lanczos.seed`, so equal graphs give equal bits.
#ifndef SSPLANE_SPECTRAL_PERCOLATION_H
#define SSPLANE_SPECTRAL_PERCOLATION_H

#include <cstdint>
#include <span>
#include <vector>

#include "lsn/scenario.h"
#include "spectral/lanczos.h"
#include "spectral/laplacian.h"

namespace ssplane::spectral {

/// Analyzer knobs: which of the expensive quantities to compute. The
/// union-find metrics are always on (they are the cheap backbone).
struct percolation_options {
    // DETLINT-ALLOW(validate-coverage): both values are valid.
    bool compute_lambda2 = true;    ///< Lanczos λ₂ per analysis.
    // DETLINT-ALLOW(validate-coverage): both values are valid.
    bool compute_clustering = true; ///< Triangle-counting clustering pass.
    lanczos_options lanczos{};      ///< Solver knobs when λ₂ is on.
};

/// Reject degenerate analyzer knobs (delegates to the Lanczos validation)
/// with a clear `contract_violation`.
void validate(const percolation_options& options);

/// Structural robustness metrics of one masked graph.
struct percolation_metrics {
    int n_alive = 0;      ///< Satellites the mask leaves in place.
    int n_components = 0; ///< Connected components among alive satellites.
    /// Largest component over ALL satellites — reflects fragmentation and
    /// raw loss, matching `lsn::giant_component_fraction`.
    double giant_component_fraction = 0.0;
    /// Largest component over alive satellites only — pure fragmentation.
    double giant_alive_fraction = 0.0;
    /// Σ (finite-cluster sizes)² / n_satellites, the giant component
    /// excluded — spikes at the percolation transition.
    double susceptibility = 0.0;
    /// Closed / connected triplets of the alive subgraph (0 when no
    /// connected triplet exists, or when the pass is disabled).
    double clustering_coefficient = 0.0;
    /// Algebraic connectivity of the alive subgraph (failed satellites have
    /// no row, so one failed satellite does not pin λ₂ at 0). Exactly 0 when
    /// union-find finds the alive graph disconnected (no solve runs), when
    /// it is empty, or when the solve is disabled.
    double lambda2 = 0.0;
    int lanczos_iterations = 0; ///< 0 when no solve ran.
    /// False only when the λ₂ solve stopped at `lanczos.max_iterations`
    /// before its residual test passed: `lambda2` is then an approximation
    /// from above.
    bool lambda2_converged = true;
};

/// Analyze the static ISL wiring of a topology under a failure mask
/// (empty = none; else size n_satellites, nonzero = failed).
percolation_metrics analyze_percolation(const lsn::lsn_topology& topology,
                                        std::span<const std::uint8_t> failed = {},
                                        const percolation_options& options = {});

/// Analyze the live (range-gated) satellite graph of a snapshot.
percolation_metrics analyze_percolation(const lsn::network_snapshot& snapshot,
                                        std::span<const std::uint8_t> failed = {},
                                        const percolation_options& options = {});

/// Shared core over a built alive graph (see `alive_adjacency`): λ₂,
/// components and clusters are all computed on its survivors, with only
/// the giant fraction and χ normalized by `graph.n_satellites`. Exposed for
/// synthetic graphs in tests.
percolation_metrics analyze_adjacency(const alive_graph& graph,
                                      const percolation_options& options = {});

// --- Masking-threshold detector --------------------------------------------

/// Knobs of the escalating-attack masking-threshold search.
struct masking_threshold_options {
    /// Attack process: `plane_attack` (targeted, the masking story) or
    /// `random_loss`. Timeline modes are rejected.
    lsn::failure_mode mode = lsn::failure_mode::plane_attack;
    double fraction_step = 0.05; ///< Escalation grid spacing in (0, 1].
    double max_fraction = 0.6;   ///< Last fraction probed, in (0, 1].
    int n_seeds = 4;             ///< Independent mask draws averaged per step.
    // DETLINT-ALLOW(validate-coverage): every 64-bit seed is valid.
    std::uint64_t seed = 1;      ///< Base seed of the per-draw sub-streams.
    /// Collapse when the mean alive-giant fraction drops below this —
    /// i.e. fragmentation, not raw loss, dominates.
    double gcc_collapse_ratio = 0.5;
    /// Collapse when mean λ₂ drops below this (disconnection to solver
    /// precision). Only consulted when `metrics.compute_lambda2` is on.
    double lambda2_epsilon = 1.0e-9;
    /// Stop escalating at the collapse step (the detector's contract), or
    /// keep going to `max_fraction` for the full degradation curve
    /// (resilience integrals, tables).
    // DETLINT-ALLOW(validate-coverage): both values are valid.
    bool stop_at_collapse = true;
    percolation_options metrics{}; ///< Analyzer knobs per probed mask.
};

/// Reject degenerate detector knobs with a clear `contract_violation`.
void validate(const masking_threshold_options& options);

/// One escalation step: seed-averaged metrics at one attack fraction.
struct masking_threshold_step {
    double fraction = 0.0; ///< Attack fraction probed (of sats or planes).
    double mean_giant_component_fraction = 0.0;
    double mean_giant_alive_fraction = 0.0;
    double mean_lambda2 = 0.0;
    double mean_susceptibility = 0.0;
    double mean_clustering = 0.0;
};

struct masking_threshold_result {
    /// First probed fraction at which the collapse predicate fired; -1
    /// when the graph never collapsed up to `max_fraction` (mirrors
    /// `lsn::first_time_below`).
    double threshold_fraction = -1.0;
    std::vector<masking_threshold_step> steps; ///< Fraction 0 first.
};

/// Escalate the attack fraction from 0 in `fraction_step` increments,
/// drawing `n_seeds` masks per step through `lsn::sample_failures`, until
/// λ₂/GCC collapse (or `max_fraction`). Deterministic in `options.seed`.
masking_threshold_result find_masking_threshold(
    const lsn::lsn_topology& topology, const masking_threshold_options& options = {});

// --- Timeline sweep (the campaign engine's inner loop) ----------------------

/// Per-step structural trajectories of one failure timeline, plus scalar
/// reductions. Step traces are aligned with the sweep offsets.
struct percolation_sweep_result {
    double lambda2_mean = 0.0;
    double lambda2_min = 0.0;
    double giant_fraction_mean = 0.0;
    double giant_fraction_min = 0.0;
    double susceptibility_mean = 0.0;
    double susceptibility_max = 0.0;
    double clustering_mean = 0.0;
    /// Steps whose λ₂ is approximate (`lambda2_converged` false).
    int lambda2_unconverged_steps = 0;
    std::vector<double> step_lambda2;
    std::vector<double> step_giant_fraction; ///< Over all satellites.
    std::vector<double> step_susceptibility;
    std::vector<double> step_clustering;
    /// 1 where the step's λ₂ is approximate, else 0.
    std::vector<std::uint8_t> step_lambda2_unconverged;
};

/// Sweep the timeline over the geometry: each step analyzes its
/// range-gated snapshot graph under `timeline.step(i)`. Steps are keyed on
/// their `alive_graph` by a hash plus a full compare; each distinct graph
/// is analyzed once and its metrics are copied to the repeats, each repeat
/// counted in `spectral.percolate.reused`. Equal to per-step
/// `analyze_percolation`, and bit-identical for any SSPLANE_THREADS value
/// (per-step and per-graph result slots).
percolation_sweep_result run_percolation_sweep_timeline(
    const lsn::sweep_geometry& geometry, const lsn::failure_timeline& timeline,
    const percolation_options& options = {});

} // namespace ssplane::spectral

#endif // SSPLANE_SPECTRAL_PERCOLATION_H
