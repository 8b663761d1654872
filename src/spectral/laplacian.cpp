#include "spectral/laplacian.h"

#include <algorithm>
#include <numeric>

#include "util/expects.h"

namespace ssplane::spectral {

void csr_matrix::multiply(std::span<const double> x, std::span<double> y) const
{
    expects(x.size() == static_cast<std::size_t>(n) &&
                y.size() == static_cast<std::size_t>(n),
            "mat-vec operand size mismatch");
    for (int r = 0; r < n; ++r) {
        double sum = 0.0;
        for (int k = row_ptr[static_cast<std::size_t>(r)];
             k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k)
            sum += values[static_cast<std::size_t>(k)] *
                   x[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
        y[static_cast<std::size_t>(r)] = sum;
    }
}

void validate(const csr_matrix& matrix)
{
    expects(matrix.n >= 0, "CSR dimension must be non-negative");
    expects(matrix.row_ptr.size() == static_cast<std::size_t>(matrix.n) + 1,
            "CSR row_ptr must have n + 1 entries");
    expects(matrix.row_ptr.empty() || matrix.row_ptr.front() == 0,
            "CSR row_ptr must start at 0");
    for (std::size_t r = 0; r + 1 < matrix.row_ptr.size(); ++r)
        expects(matrix.row_ptr[r] <= matrix.row_ptr[r + 1],
                "CSR row_ptr must be non-decreasing");
    expects(matrix.col.size() ==
                    static_cast<std::size_t>(matrix.row_ptr.back()) &&
                matrix.values.size() == matrix.col.size(),
            "CSR col/values must match row_ptr's final entry");
    for (const int c : matrix.col)
        expects(c >= 0 && c < matrix.n, "CSR column index out of range");
}

alive_graph alive_adjacency(int n_satellites, std::span<const lsn::isl_link> links,
                            std::span<const std::uint8_t> failed)
{
    const auto n = static_cast<std::size_t>(n_satellites);
    expects(failed.empty() || failed.size() == n, "failure mask size mismatch");
    std::vector<int> survivor(n, -1);
    int n_alive = 0;
    for (std::size_t s = 0; s < n; ++s)
        if (failed.empty() || failed[s] == 0) survivor[s] = n_alive++;

    // Relabel the kept links to survivor pairs, counting each at both ends.
    alive_graph graph;
    graph.n_satellites = n_satellites;
    auto& begin = graph.row_begin;
    begin.assign(static_cast<std::size_t>(n_alive) + 1, 0);
    std::vector<lsn::isl_link> kept;
    for (const auto& link : links) {
        expects(link.a >= 0 && link.a < n_satellites && link.b >= 0 &&
                    link.b < n_satellites,
                "link endpoint out of range");
        const int u = survivor[static_cast<std::size_t>(link.a)];
        const int v = survivor[static_cast<std::size_t>(link.b)];
        if (u < 0 || v < 0 || u == v) continue;
        kept.push_back({u, v});
        ++begin[static_cast<std::size_t>(u) + 1];
        ++begin[static_cast<std::size_t>(v) + 1];
    }
    std::partial_sum(begin.begin(), begin.end(), begin.begin());

    // Place each in both rows. Then sort each row and keep a neighbour only
    // when it differs from the last one kept, moving rows down over repeats.
    auto& neighbors = graph.neighbors;
    neighbors.resize(static_cast<std::size_t>(begin.back()));
    std::vector<int> next(begin.begin(), begin.end() - 1);
    for (const auto& [u, v] : kept) {
        neighbors[static_cast<std::size_t>(next[static_cast<std::size_t>(u)]++)] = v;
        neighbors[static_cast<std::size_t>(next[static_cast<std::size_t>(v)]++)] = u;
    }
    int end = 0;
    for (std::size_t r = 0; r + 1 < begin.size(); ++r) {
        const auto first = neighbors.begin() + begin[r];
        const auto last = neighbors.begin() + begin[r + 1];
        std::sort(first, last);
        begin[r] = end;
        for (auto it = first; it != last; ++it)
            if (end == begin[r] || neighbors[static_cast<std::size_t>(end) - 1] != *it)
                neighbors[static_cast<std::size_t>(end++)] = *it;
    }
    begin.back() = end;
    neighbors.resize(static_cast<std::size_t>(end));
    return graph;
}

alive_graph alive_adjacency(const lsn::lsn_topology& topology,
                            std::span<const std::uint8_t> failed)
{
    return alive_adjacency(static_cast<int>(topology.satellites.size()), topology.links,
                           failed);
}

alive_graph alive_adjacency(const lsn::network_snapshot& snapshot,
                            std::span<const std::uint8_t> failed)
{
    std::vector<lsn::isl_link> links;
    for (const auto& link : snapshot.links)
        if (link.b < snapshot.n_satellites) links.push_back({link.a, link.b});
    return alive_adjacency(snapshot.n_satellites, links, failed);
}

csr_matrix laplacian_from_adjacency(const alive_graph& graph)
{
    const int n = graph.n_alive();
    csr_matrix matrix;
    matrix.n = n;
    matrix.row_ptr.reserve(static_cast<std::size_t>(n) + 1);
    matrix.row_ptr.push_back(0);
    for (int r = 0; r < n; ++r) {
        const auto neighbors = graph.row(r);
        const int degree = static_cast<int>(neighbors.size());
        // Row r of D - A: -1 per neighbor, the degree on the diagonal —
        // emitted in ascending column order (rows are sorted).
        bool diagonal_emitted = false;
        for (const int c : neighbors) {
            expects(c >= 0 && c < n, "adjacency neighbor out of range");
            if (!diagonal_emitted && c > r) {
                matrix.col.push_back(r);
                matrix.values.push_back(static_cast<double>(degree));
                diagonal_emitted = true;
            }
            matrix.col.push_back(c);
            matrix.values.push_back(-1.0);
        }
        if (!diagonal_emitted) {
            matrix.col.push_back(r);
            matrix.values.push_back(static_cast<double>(degree));
        }
        matrix.row_ptr.push_back(static_cast<int>(matrix.col.size()));
    }
    return matrix;
}

} // namespace ssplane::spectral
