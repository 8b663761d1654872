#include "spectral/lanczos.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"
#include "util/rng.h"

namespace ssplane::spectral {

namespace {

// Sub-stream purpose of `rng::split(seed, purpose)` for the Lanczos start
// vector. Tree-wide unique (detlint split-purpose-collision): lsn's
// cascade/storm generators hold 1 and 2, percolation holds 4.
constexpr std::uint64_t purpose_lanczos_start = 3;

/// A Gram–Schmidt pass that leaves less than this share of the vector's
/// norm has cancelled enough to lose orthogonality, so it is repeated
/// (Daniel–Gragg–Kaufman–Stewart; 1/√2 is the classical threshold).
constexpr double dgks_ratio = 0.70710678118654752;

/// Inner product in a fixed order: lane l sums the entries i ≡ l (mod 8)
/// and the lanes combine in a fixed tree. The order depends only on the
/// length, so the result is bit-reproducible, and the eight independent
/// lanes keep the multiply-adds pipelined.
double dot(std::span<const double> a, std::span<const double> b)
{
    constexpr std::size_t lanes = 8;
    std::array<double, lanes> lane{};
    const std::size_t n = a.size();
    std::size_t i = 0;
    for (; i + lanes <= n; i += lanes)
        for (std::size_t l = 0; l < lanes; ++l) lane[l] += a[i + l] * b[i + l];
    double sum = ((lane[0] + lane[4]) + (lane[1] + lane[5])) +
                 ((lane[2] + lane[6]) + (lane[3] + lane[7]));
    for (; i < n; ++i) sum += a[i] * b[i];
    return sum;
}

double norm(std::span<const double> a) { return std::sqrt(dot(a, a)); }

/// Project the constant component out of v: v -= mean(v).
void deflate_constant(std::span<double> v)
{
    double mean = 0.0;
    for (const double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    for (double& x : v) x -= mean;
}

/// One classical Gram–Schmidt pass: w -= Σ_b <q_b, w> q_b over the
/// constant mode and every basis vector. All overlaps are taken against
/// the same w, so the update can stream four basis vectors per sweep.
void project_out(const std::vector<std::vector<double>>& basis, std::span<double> w,
                 std::vector<double>& overlaps)
{
    deflate_constant(w);
    overlaps.resize(basis.size());
    for (std::size_t b = 0; b < basis.size(); ++b) overlaps[b] = dot(basis[b], w);
    std::size_t b = 0;
    for (; b + 4 <= basis.size(); b += 4) {
        const double* q0 = basis[b].data();
        const double* q1 = basis[b + 1].data();
        const double* q2 = basis[b + 2].data();
        const double* q3 = basis[b + 3].data();
        const double h0 = overlaps[b], h1 = overlaps[b + 1];
        const double h2 = overlaps[b + 2], h3 = overlaps[b + 3];
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] -= (h0 * q0[i] + h1 * q1[i]) + (h2 * q2[i] + h3 * q3[i]);
    }
    for (; b < basis.size(); ++b)
        for (std::size_t i = 0; i < w.size(); ++i) w[i] -= overlaps[b] * basis[b][i];
}

/// Eigenvalues of T strictly below x, by Sturm sequence (counts the sign
/// agreements of the leading-principal-minor recurrence).
int sturm_count_below(std::span<const double> alpha, std::span<const double> beta,
                      double x)
{
    int count = 0;
    double d = 1.0;
    for (std::size_t i = 0; i < alpha.size(); ++i) {
        const double beta_sq = i == 0 ? 0.0 : beta[i - 1] * beta[i - 1];
        d = alpha[i] - x - beta_sq / d;
        if (d == 0.0) d = 1.0e-300; // graze: nudge off the exact eigenvalue
        if (d < 0.0) ++count;
    }
    return count;
}

/// Overwrite `x` with (T − θI)⁻¹ x: tridiagonal Gaussian elimination with
/// partial pivoting (LAPACK dgttrf/dgttrs). θ is an eigenvalue, so the
/// last pivot is nearly zero and the solve blows up along the eigenvector
/// — that is inverse iteration; an exactly zero pivot becomes `tiny`.
void shifted_solve(std::span<const double> alpha, std::span<const double> beta,
                   double theta, double tiny, std::vector<double>& x)
{
    const std::size_t m = alpha.size();
    std::vector<double> d(m), upper(m, 0.0), upper2(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) d[i] = alpha[i] - theta;
    for (std::size_t i = 0; i + 1 < m; ++i) upper[i] = beta[i];
    // Forward elimination, applied to x as it goes.
    for (std::size_t i = 0; i + 1 < m; ++i) {
        const double below = beta[i];
        if (std::abs(d[i]) >= std::abs(below)) {
            if (d[i] == 0.0) d[i] = tiny;
            const double factor = below / d[i];
            d[i + 1] -= factor * upper[i];
            x[i + 1] -= factor * x[i];
        } else {
            // Swap rows i and i+1, then eliminate.
            const double factor = d[i] / below;
            d[i] = below;
            const double next_diag = d[i + 1];
            d[i + 1] = upper[i] - factor * next_diag;
            upper[i] = next_diag;
            if (i + 2 < m) {
                upper2[i] = upper[i + 1];
                upper[i + 1] = -factor * upper[i + 1];
            }
            std::swap(x[i], x[i + 1]);
            x[i + 1] -= factor * x[i];
        }
    }
    // Back substitution through the upper band (diagonal, +1, +2).
    for (std::size_t k = m; k-- > 0;) {
        if (d[k] == 0.0) d[k] = tiny;
        double v = x[k];
        if (k + 1 < m) v -= upper[k] * x[k + 1];
        if (k + 2 < m) v -= upper2[k] * x[k + 2];
        x[k] = v / d[k];
    }
}

} // namespace

void validate(const lanczos_options& options)
{
    expects(options.max_iterations >= 1,
            "lanczos max_iterations must be at least 1");
    expects(std::isfinite(options.tolerance) && options.tolerance >= 0.0,
            "lanczos tolerance must be finite and non-negative");
}

double tridiagonal_smallest_eigenvalue(std::span<const double> alpha,
                                       std::span<const double> beta)
{
    expects(!alpha.empty(), "tridiagonal matrix must be non-empty");
    expects(beta.size() + 1 == alpha.size(),
            "tridiagonal off-diagonal must have n - 1 entries");
    // Gershgorin bracket of the whole spectrum.
    double lo = alpha[0];
    double hi = alpha[0];
    for (std::size_t i = 0; i < alpha.size(); ++i) {
        const double left = i == 0 ? 0.0 : std::abs(beta[i - 1]);
        const double right = i + 1 == alpha.size() ? 0.0 : std::abs(beta[i]);
        lo = std::min(lo, alpha[i] - left - right);
        hi = std::max(hi, alpha[i] + left + right);
    }
    // Bisect for the first point with at least one eigenvalue below it.
    for (int iter = 0; iter < 200 && hi - lo > 1.0e-15 * std::max(1.0, std::abs(hi));
         ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (sturm_count_below(alpha, beta, mid) >= 1)
            hi = mid;
        else
            lo = mid;
    }
    return 0.5 * (lo + hi);
}

double tridiagonal_eigenvector_last_component(std::span<const double> alpha,
                                              std::span<const double> beta,
                                              double theta)
{
    expects(!alpha.empty(), "tridiagonal matrix must be non-empty");
    expects(beta.size() + 1 == alpha.size(),
            "tridiagonal off-diagonal must have n - 1 entries");
    const std::size_t m = alpha.size();
    if (m == 1) return 1.0;
    // A zero pivot becomes a rounding-sized one, ε‖T‖∞, which keeps the
    // blown-up solution far from overflow.
    double scale = 0.0;
    for (std::size_t i = 0; i < m; ++i)
        scale = std::max(scale, std::abs(alpha[i]) +
                                    (i == 0 ? 0.0 : std::abs(beta[i - 1])) +
                                    (i + 1 == m ? 0.0 : std::abs(beta[i])));
    const double tiny =
        std::numeric_limits<double>::epsilon() * (scale > 0.0 ? scale : 1.0);
    // Two inverse-iteration steps from the all-ones vector: θ is accurate
    // to rounding, so the first solve already aligns x with the
    // eigenvector and the second cleans up a start that was nearly
    // orthogonal to it.
    std::vector<double> x(m, 1.0);
    for (int step = 0; step < 2; ++step) {
        shifted_solve(alpha, beta, theta, tiny, x);
        const double x_norm = norm(x);
        for (double& v : x) v /= x_norm;
    }
    return std::abs(x.back());
}

lanczos_result algebraic_connectivity(const alive_graph& graph,
                                      const lanczos_options& options)
{
    OBS_SPAN("spectral.lanczos");
    OBS_COUNT("spectral.lanczos.solves");
    validate(graph);
    validate(options);

    lanczos_result result;
    const int n = graph.n_alive();
    if (n <= 1) {
        result.converged = true;
        return result;
    }

    // The deflated space has dimension n - 1; more steps cannot help.
    const int max_steps =
        std::min(options.max_iterations, n - 1);
    // ‖L‖∞, the largest absolute row sum of D - A, is twice the largest
    // degree (exact: the entries are integers).
    std::size_t max_degree = 0;
    for (int r = 0; r < n; ++r) max_degree = std::max(max_degree, graph.row(r).size());
    const double residual_limit =
        options.tolerance * (2.0 * static_cast<double>(max_degree));

    // Seeded start vector, constant mode removed, normalized. A uniform
    // draw is orthogonal-to-constant only after deflation; its residual
    // norm is positive with probability 1, but guard the measure-zero draw
    // by falling back to a deterministic ramp.
    std::vector<double> v(static_cast<std::size_t>(n));
    {
        rng r = rng::split(options.seed, purpose_lanczos_start);
        for (double& x : v) x = r.uniform() - 0.5;
        deflate_constant(v);
        if (norm(v) < 1.0e-12) {
            for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
            deflate_constant(v);
        }
        const double v_norm = norm(v);
        for (double& x : v) x /= v_norm;
    }

    std::vector<std::vector<double>> basis; // v_0 .. v_j, kept for reorth
    basis.push_back(v);
    std::vector<double> alpha, beta, overlaps;
    std::vector<double> w(static_cast<std::size_t>(n));
    double ritz = 0.0;

    for (int j = 0; j < max_steps; ++j) {
        laplacian_multiply(graph, basis.back(), w);
        const double a = dot(basis.back(), w);
        alpha.push_back(a);

        // Three-term recurrence, then full reorthogonalization: keep w
        // orthogonal to the constant mode and to every Lanczos vector so
        // far.
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] -= a * basis.back()[i];
        if (j > 0)
            for (std::size_t i = 0; i < w.size(); ++i)
                w[i] -= beta.back() * basis[basis.size() - 2][i];
        const double unprojected = norm(w);
        project_out(basis, w, overlaps);
        double b = norm(w);
        if (b < dgks_ratio * unprojected) {
            project_out(basis, w, overlaps);
            b = norm(w);
        }

        result.iterations = j + 1;
        ritz = tridiagonal_smallest_eigenvalue(alpha, beta);
        // ‖Lx − θx‖ = β_{j+1} |s_j| for the Ritz vector x = V s.
        result.residual = b * tridiagonal_eigenvector_last_component(alpha, beta, ritz);
        if (b < 1.0e-12 || result.residual <= residual_limit) {
            // Residual test passed, or the Krylov space is exhausted and the
            // tridiagonal spectrum is the exact spectrum of the deflated
            // operator's reachable subspace.
            result.converged = true;
            break;
        }

        beta.push_back(b);
        for (double& x : w) x /= b;
        basis.push_back(w);
    }

    OBS_COUNT_N("spectral.lanczos.iterations", result.iterations);
    if (!result.converged) OBS_COUNT("spectral.lanczos.unconverged");
    // Laplacians are PSD; clamp the tiny negative rounding noise a
    // disconnected graph's zero eigenvalue can bisect to.
    result.lambda2 = std::max(ritz, 0.0);
    return result;
}

} // namespace ssplane::spectral
