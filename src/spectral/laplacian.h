// Sparse graph Laplacians of LSN topologies (ROADMAP "percolation &
// robustness analysis suite").
//
// The spectral half of the robustness story needs L = D - A of the
// satellite ISL graph under a failure mask: its second-smallest eigenvalue
// (the algebraic connectivity, λ₂) is the sharp structural quantity the
// delivered-throughput sweeps cannot see — λ₂ > 0 iff the alive graph is
// connected, and its magnitude measures how much redundancy an attacker
// must still defeat. `csr_matrix` is the compressed-sparse-row form the
// Lanczos solver (`spectral/lanczos.h`) multiplies against.
//
// `alive_graph` is the one form of the surviving satellite-satellite graph
// from snapshot to λ₂ (ground stations and their uplinks are serving
// infrastructure, not structure): `alive_adjacency` builds it once from
// (a, b) satellite pairs, compacted to the survivors, and the percolation
// analyzer, its sweep's step dedup and `laplacian_from_adjacency` all read
// it as built.
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
    /// suite builds (one row per survivor) are far below the size where
    /// threading a mat-vec would pay.
    void multiply(std::span<const double> x, std::span<double> y) const;
};

/// Reject malformed CSR shapes (row_ptr size/monotonicity, column bounds,
/// value count) with a clear `contract_violation`.
void validate(const csr_matrix& matrix);

/// The alive satellite-satellite graph, compacted to the survivors, in
/// compressed-sparse-row form. Survivor i is the i-th satellite the mask
/// leaves alive, in index order, and row i lists its distinct neighbours
/// (survivor indices) in ascending order. Equal graphs give bit-identical
/// analyses, so `==` is the percolation sweep's step-equality test.
struct alive_graph {
    /// Every satellite, failed ones included: the denominator of the giant
    /// fraction and the susceptibility.
    int n_satellites = 0;
    std::vector<int> row_begin{0}; ///< Size n_alive() + 1.
    std::vector<int> neighbors;    ///< Size row_begin.back().

    int n_alive() const noexcept { return static_cast<int>(row_begin.size()) - 1; }

    /// The neighbours of survivor `i`, ascending.
    std::span<const int> row(int i) const
    {
        const auto r = static_cast<std::size_t>(i);
        return {neighbors.data() + row_begin[r], neighbors.data() + row_begin[r + 1]};
    }

    bool operator==(const alive_graph&) const = default;
};

/// The one builder: the alive graph of `n_satellites` satellites joined by
/// the undirected `links` (either orientation) under `failed` (empty =
/// none; else one flag per satellite, nonzero = failed). Self-loops,
/// repeated links and every link with a failed endpoint drop out. A mask of
/// the wrong size or an endpoint outside [0, n_satellites) is a
/// `contract_violation`.
alive_graph alive_adjacency(int n_satellites, std::span<const lsn::isl_link> links,
                            std::span<const std::uint8_t> failed = {});

/// The static ISL wiring `topology.links` under `failed`.
alive_graph alive_adjacency(const lsn::lsn_topology& topology,
                            std::span<const std::uint8_t> failed = {});

/// The range-gated satellite-satellite links of `snapshot` under `failed`;
/// the snapshot's own mask already removed its dead satellites' links, and
/// `failed` drops those satellites' rows.
alive_graph alive_adjacency(const lsn::network_snapshot& snapshot,
                            std::span<const std::uint8_t> failed = {});

/// Laplacian L = D - A of an alive graph, one row per survivor: -1 per
/// neighbour and the degree on the diagonal, columns ascending. Compose it
/// with `alive_adjacency` for an LSN graph:
/// `laplacian_from_adjacency(alive_adjacency(snapshot, failed))`.
csr_matrix laplacian_from_adjacency(const alive_graph& graph);

} // namespace ssplane::spectral

#endif // SSPLANE_SPECTRAL_LAPLACIAN_H
