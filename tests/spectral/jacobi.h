// Dense symmetric eigensolver (cyclic Jacobi rotations), test-side only.
//
// The slow-but-certain reference of the spectral tests: O(n³) per sweep,
// unconditionally convergent on symmetric matrices, no starting vector and
// no subspace bookkeeping to get wrong. The Lanczos solver (which projects
// onto a tridiagonal and bisects its Sturm sequence instead) is validated
// against this reference on small graphs where O(n³) is nothing.
#ifndef SSPLANE_TESTS_SPECTRAL_JACOBI_H
#define SSPLANE_TESTS_SPECTRAL_JACOBI_H

#include <vector>

namespace ssplane::spectral {

/// All eigenvalues of a dense symmetric matrix (row-major n x n, only the
/// symmetric part is read), sorted ascending. Deterministic: the cyclic
/// sweep order is fixed, no threading. Intended for n up to a few hundred —
/// the validation regime — not as a production path.
std::vector<double> jacobi_eigenvalues(std::vector<double> matrix, int n);

/// Dense row-major Laplacian L = D - A of an alive graph (for handing
/// graphs to the dense reference): the degree on the diagonal, -1 per
/// neighbour.
struct alive_graph;
std::vector<double> to_dense(const alive_graph& graph);

} // namespace ssplane::spectral

#endif // SSPLANE_TESTS_SPECTRAL_JACOBI_H
