// Deterministic Lanczos eigensolver for the algebraic connectivity λ₂ of
// an alive satellite graph (ROADMAP "sparse Laplacian eigensolver — a
// reusable numerics brick").
//
// λ₂ — the smallest eigenvalue of L = D - A restricted to the complement
// of the constant vector — is the spectral robustness quantity of the
// percolation suite: zero iff the graph is disconnected, and a
// quantitative measure of how well-knit the survivors are once it is not.
// The solver takes the graph itself, never an assembled matrix: the
// constant-vector deflation below is right only for a graph Laplacian, and
// `laplacian_multiply` applies L from the graph's rows. It runs plain
// Lanczos on L with
//
//   * the constant vector deflated (start vector and every iterate are
//     projected off 1/√n, so the trivial λ₁ = 0 mode never enters the
//     Krylov space),
//   * full reorthogonalization — every new direction is projected against
//     all previous Lanczos vectors by one classical Gram–Schmidt pass, and
//     by a second pass only when the first cancelled most of it (the
//     Daniel–Gragg–Kaufman–Stewart test) — the textbook cure for the
//     ghost-eigenvalue drift of finite-precision Lanczos, affordable
//     because robustness graphs have one row per satellite,
//   * a residual stopping rule: the solve is converged when the Ritz pair
//     (θ, x) of the smallest Ritz value satisfies
//     ‖Lx − θx‖ ≤ tolerance · ‖L‖∞, read off the tridiagonal projection
//     at O(k) cost per step,
//   * a seeded start vector drawn through `rng::split`, so results are
//     bit-reproducible and adding unrelated draws to a caller's seed never
//     perturbs the solve,
//   * serial inner products (a fixed 8-lane summation order) and mat-vecs:
//     λ₂ is bit-identical for any SSPLANE_THREADS value by construction.
//
// With full reorthogonalization the iteration terminates in at most
// dim(Krylov) = n - 1 steps (β → 0 exhausts the deflated space). A solve
// stopped by `max_iterations` before the residual test passes reports
// `converged = false`; its λ₂ is then an approximation from above (a Ritz
// value never undershoots the smallest eigenvalue).
//
// The solver does not test connectivity. On a disconnected graph λ₂ = 0 is
// only approached as the iteration converges; the percolation analyzer,
// which already knows the component count, never calls the solver there
// and reports λ₂ = 0 exactly (`spectral/percolation.h`).
#ifndef SSPLANE_SPECTRAL_LANCZOS_H
#define SSPLANE_SPECTRAL_LANCZOS_H

#include <cstdint>
#include <span>

#include "spectral/laplacian.h"

namespace ssplane::spectral {

/// Knobs of the λ₂ solve.
struct lanczos_options {
    /// Krylov-dimension cap. The solve also stops at n - 1 (exact) or when
    /// the residual test passes, whichever comes first.
    int max_iterations = 512;
    /// Residual test: stop once ‖Lx − θx‖ ≤ tolerance · ‖L‖∞ for the Ritz
    /// pair of the smallest Ritz value (‖L‖∞ is twice the maximum degree).
    double tolerance = 1.0e-8;
    // DETLINT-ALLOW(validate-coverage): every 64-bit seed is valid.
    std::uint64_t seed = 0; ///< Start-vector sub-stream seed.
};

/// Reject degenerate solver knobs (non-positive iteration cap, non-finite
/// or negative tolerance) with a clear `contract_violation`.
void validate(const lanczos_options& options);

/// One λ₂ solve's outcome.
struct lanczos_result {
    double lambda2 = 0.0;
    int iterations = 0;     ///< Lanczos steps taken.
    /// Residual test passed or Krylov space exhausted; false when
    /// `max_iterations` stopped the solve first.
    bool converged = false;
    double residual = 0.0;  ///< ‖Lx − θx‖ of the returned Ritz pair.
};

/// Algebraic connectivity of `graph`: the smallest eigenvalue of its
/// Laplacian L = D - A (dimension `graph.n_alive()`) after deflating the
/// constant vector. The graph must be symmetric with ascending rows
/// (`validate(const alive_graph&)`, run once per solve); graphs with
/// n <= 1 report λ₂ = 0, converged.
lanczos_result algebraic_connectivity(const alive_graph& graph,
                                      const lanczos_options& options = {});

/// Smallest eigenvalue of the symmetric tridiagonal matrix with diagonal
/// `alpha` and off-diagonal `beta` (beta.size() == alpha.size() - 1), by
/// Sturm-sequence bisection — the projection step of the Lanczos solve,
/// exposed for tests. Deterministic; no allocation beyond the inputs.
double tridiagonal_smallest_eigenvalue(std::span<const double> alpha,
                                       std::span<const double> beta);

/// |last component| of the unit eigenvector of that tridiagonal matrix
/// for its eigenvalue `theta`, by inverse iteration. The Lanczos residual
/// of the Ritz pair is β_k times this value. Exposed for tests.
double tridiagonal_eigenvector_last_component(std::span<const double> alpha,
                                              std::span<const double> beta,
                                              double theta);

} // namespace ssplane::spectral

#endif // SSPLANE_SPECTRAL_LANCZOS_H
