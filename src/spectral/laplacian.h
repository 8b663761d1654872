// The alive satellite graph of LSN topologies and its Laplacian
// (ROADMAP "percolation & robustness analysis suite").
//
// The spectral half of the robustness story needs L = D - A of the
// satellite ISL graph under a failure mask: its second-smallest eigenvalue
// (the algebraic connectivity, λ₂) is the sharp structural quantity the
// delivered-throughput sweeps cannot see — λ₂ > 0 iff the alive graph is
// connected, and its magnitude measures how much redundancy an attacker
// must still defeat.
//
// `alive_graph` is the one form of the surviving satellite-satellite graph
// from snapshot to λ₂ (ground stations and their uplinks are serving
// infrastructure, not structure): `alive_adjacency` builds it once from
// (a, b) satellite pairs, compacted to the survivors, and the percolation
// analyzer, its sweep's step dedup and the Lanczos solver
// (`spectral/lanczos.h`) all read it as built. L is never assembled:
// `laplacian_multiply` applies it straight from the graph's rows.
#ifndef SSPLANE_SPECTRAL_LAPLACIAN_H
#define SSPLANE_SPECTRAL_LAPLACIAN_H

#include <cstdint>
#include <span>
#include <vector>

#include "lsn/topology.h"

namespace ssplane::spectral {

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

/// Reject a malformed graph with a clear `contract_violation`: `row_begin`
/// must be non-empty, start at 0, never decrease and end at
/// `neighbors.size()`; `n_satellites` must be at least `n_alive()`; each
/// row must be strictly ascending with neighbours in [0, n_alive()); and
/// the graph must be symmetric (i is in row j for every j in row i).
/// Every `alive_adjacency` graph passes.
void validate(const alive_graph& graph);

/// y = L x for L = D - A of a valid `graph`, one entry per survivor. Row r
/// sums in ascending column order from 0.0: -x[c] per neighbour c and
/// degree · x[r] just before the first neighbour above r (at the end when
/// there is none). Serial by design: the solver's inner products must be
/// bit-identical for any SSPLANE_THREADS value, and these graphs (one row
/// per survivor) are far below the size where threading a mat-vec would
/// pay.
void laplacian_multiply(const alive_graph& graph, std::span<const double> x,
                        std::span<double> y);

} // namespace ssplane::spectral

#endif // SSPLANE_SPECTRAL_LAPLACIAN_H
