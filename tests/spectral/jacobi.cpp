#include "jacobi.h"

#include <algorithm>
#include <cmath>

#include "spectral/laplacian.h"
#include "util/expects.h"

namespace ssplane::spectral {

std::vector<double> jacobi_eigenvalues(std::vector<double> matrix, int n)
{
    expects(n >= 0, "matrix dimension must be non-negative");
    expects(matrix.size() ==
                static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
            "dense matrix must be n x n");
    const auto at = [&](int r, int c) -> double& {
        return matrix[static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
                      static_cast<std::size_t>(c)];
    };
    // Work on the symmetric part so slightly asymmetric inputs (rounding in
    // the caller's assembly) cannot push the rotations off convergence.
    for (int r = 0; r < n; ++r)
        for (int c = r + 1; c < n; ++c) {
            const double symmetric = 0.5 * (at(r, c) + at(c, r));
            at(r, c) = symmetric;
            at(c, r) = symmetric;
        }

    constexpr int max_sweeps = 100;
    constexpr double tolerance = 1.0e-14;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        double off = 0.0;
        for (int r = 0; r < n; ++r)
            for (int c = r + 1; c < n; ++c) off += at(r, c) * at(r, c);
        // Scale-free stop: off-diagonal mass relative to the matrix norm.
        double diag = 0.0;
        for (int r = 0; r < n; ++r) diag += at(r, r) * at(r, r);
        if (off <= tolerance * std::max(1.0, diag)) break;

        for (int p = 0; p < n; ++p) {
            for (int q = p + 1; q < n; ++q) {
                if (at(p, q) == 0.0) continue;
                // Classic symmetric Schur rotation zeroing (p, q).
                const double theta = (at(q, q) - at(p, p)) / (2.0 * at(p, q));
                const double t =
                    (theta >= 0.0 ? 1.0 : -1.0) /
                    (std::abs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                for (int k = 0; k < n; ++k) {
                    const double akp = at(k, p);
                    const double akq = at(k, q);
                    at(k, p) = c * akp - s * akq;
                    at(k, q) = s * akp + c * akq;
                }
                for (int k = 0; k < n; ++k) {
                    const double apk = at(p, k);
                    const double aqk = at(q, k);
                    at(p, k) = c * apk - s * aqk;
                    at(q, k) = s * apk + c * aqk;
                }
            }
        }
    }

    std::vector<double> eigenvalues(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) eigenvalues[static_cast<std::size_t>(r)] = at(r, r);
    std::sort(eigenvalues.begin(), eigenvalues.end());
    return eigenvalues;
}

std::vector<double> to_dense(const alive_graph& graph)
{
    validate(graph);
    const auto n = static_cast<std::size_t>(graph.n_alive());
    std::vector<double> dense(n * n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
        const auto neighbors = graph.row(static_cast<int>(r));
        dense[r * n + r] = static_cast<double>(neighbors.size());
        for (const int c : neighbors) dense[r * n + static_cast<std::size_t>(c)] = -1.0;
    }
    return dense;
}

} // namespace ssplane::spectral
