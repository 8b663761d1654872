// Sparse graph Laplacians of LSN topologies (ROADMAP "percolation &
// robustness analysis suite").
//
// The spectral half of the robustness story needs L = D - A of the
// satellite ISL graph under a failure mask: its second-smallest eigenvalue
// (the algebraic connectivity, λ₂) is the sharp structural quantity the
// delivered-throughput sweeps cannot see — λ₂ > 0 iff the alive graph is
// connected, and its magnitude measures how much redundancy an attacker
// must still defeat. `csr_matrix` is the compressed-sparse-row form the
// Lanczos solver (`spectral/lanczos.h`) multiplies against;
// `laplacian_from_adjacency` assembles it from the `alive_adjacency` lists
// of either the static ISL wiring of an `lsn_topology` or the range-gated
// live link table of a `network_snapshot`.
//
// Conventions shared by both `alive_adjacency` forms:
//   * only satellite-satellite edges enter the Laplacian (ground stations
//     and their uplinks are serving infrastructure, not structure);
//   * satellites flagged in `failed` keep their row (the matrix dimension
//     is always n_satellites, so spectra of different masks are
//     comparable) but lose every incident edge — a dead slot is an
//     isolated vertex;
//   * duplicate undirected edges are coalesced, self-loops dropped.
#ifndef SSPLANE_SPECTRAL_LAPLACIAN_H
#define SSPLANE_SPECTRAL_LAPLACIAN_H

#include <cstdint>
#include <span>
#include <vector>

#include "lsn/topology.h"

namespace ssplane::spectral {

/// Symmetric sparse matrix in compressed-sparse-row form. Column indices
/// of each row are sorted ascending, so matrix-vector products and row
/// walks are deterministic.
struct csr_matrix {
    int n = 0;
    std::vector<int> row_ptr; ///< Size n + 1.
    std::vector<int> col;     ///< Size row_ptr[n].
    std::vector<double> values;

    /// y = M x. Serial by design: the solver's inner products must be
    /// bit-identical for any SSPLANE_THREADS value, and the matrices this
    /// suite builds (one row per satellite) are far below the size where
    /// threading a mat-vec would pay.
    void multiply(std::span<const double> x, std::span<double> y) const;

    std::size_t nonzeros() const noexcept { return col.size(); }
};

/// Reject malformed CSR shapes (row_ptr size/monotonicity, column bounds,
/// value count) with a clear `contract_violation`.
void validate(const csr_matrix& matrix);

/// Sorted adjacency lists of the alive satellite-satellite subgraph —
/// the walk structure the percolation analyzer (clustering, union-find,
/// the Laplacian) works on. One row per satellite; adjacency[s] is empty
/// for failed satellites. The topology form reads the static ISL wiring
/// `topology.links`; the snapshot form reads the range-gated
/// `snapshot.links`, whose own mask already removed dead satellites' links
/// (`failed` may still isolate satellites after the fact).
std::vector<std::vector<int>> alive_adjacency(
    const lsn::lsn_topology& topology, std::span<const std::uint8_t> failed = {});
std::vector<std::vector<int>> alive_adjacency(
    const lsn::network_snapshot& snapshot,
    std::span<const std::uint8_t> failed = {});

/// Laplacian L = D - A assembled from sorted adjacency lists, one row per
/// list. Compose it with `alive_adjacency` for an LSN graph:
/// `laplacian_from_adjacency(alive_adjacency(snapshot, failed))`.
csr_matrix laplacian_from_adjacency(const std::vector<std::vector<int>>& adjacency);

} // namespace ssplane::spectral

#endif // SSPLANE_SPECTRAL_LAPLACIAN_H
