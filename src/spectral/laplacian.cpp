#include "spectral/laplacian.h"

#include <algorithm>

#include "util/expects.h"

namespace ssplane::spectral {

namespace {

bool is_failed(std::span<const std::uint8_t> failed, int s)
{
    return !failed.empty() && failed[static_cast<std::size_t>(s)] != 0;
}

/// Sort each adjacency list and drop duplicate neighbors, so downstream
/// walks (CSR assembly, triangle counting) see each undirected edge once
/// per endpoint in a deterministic order.
void sort_unique(std::vector<std::vector<int>>& adjacency)
{
    for (auto& neighbors : adjacency) {
        std::sort(neighbors.begin(), neighbors.end());
        neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                        neighbors.end());
    }
}

} // namespace

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

std::vector<std::vector<int>> alive_adjacency(
    const lsn::lsn_topology& topology, std::span<const std::uint8_t> failed)
{
    const int n = static_cast<int>(topology.satellites.size());
    expects(failed.empty() || failed.size() == static_cast<std::size_t>(n),
            "failure mask size mismatch");
    std::vector<std::vector<int>> adjacency(static_cast<std::size_t>(n));
    for (const auto& link : topology.links) {
        expects(link.a >= 0 && link.a < n && link.b >= 0 && link.b < n,
                "topology link endpoint out of range");
        if (link.a == link.b) continue;
        if (is_failed(failed, link.a) || is_failed(failed, link.b)) continue;
        adjacency[static_cast<std::size_t>(link.a)].push_back(link.b);
        adjacency[static_cast<std::size_t>(link.b)].push_back(link.a);
    }
    sort_unique(adjacency);
    return adjacency;
}

std::vector<std::vector<int>> alive_adjacency(
    const lsn::network_snapshot& snapshot, std::span<const std::uint8_t> failed)
{
    const int n = snapshot.n_satellites;
    expects(failed.empty() || failed.size() == static_cast<std::size_t>(n),
            "failure mask size mismatch");
    std::vector<std::vector<int>> adjacency(static_cast<std::size_t>(n));
    for (const auto& link : snapshot.links) {
        if (link.b >= n) continue; // ground links are not structure
        if (is_failed(failed, link.a) || is_failed(failed, link.b)) continue;
        adjacency[static_cast<std::size_t>(link.a)].push_back(link.b);
        adjacency[static_cast<std::size_t>(link.b)].push_back(link.a);
    }
    sort_unique(adjacency);
    return adjacency;
}

csr_matrix laplacian_from_adjacency(const std::vector<std::vector<int>>& adjacency)
{
    const int n = static_cast<int>(adjacency.size());
    csr_matrix matrix;
    matrix.n = n;
    matrix.row_ptr.reserve(static_cast<std::size_t>(n) + 1);
    matrix.row_ptr.push_back(0);
    for (int r = 0; r < n; ++r) {
        const auto& neighbors = adjacency[static_cast<std::size_t>(r)];
        const int degree = static_cast<int>(neighbors.size());
        // Row r of D - A: -1 per neighbor, the degree on the diagonal —
        // emitted in ascending column order (neighbors are sorted).
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
