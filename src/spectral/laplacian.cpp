#include "spectral/laplacian.h"

#include <algorithm>
#include <numeric>

#include "util/expects.h"

namespace ssplane::spectral {

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

void validate(const alive_graph& graph)
{
    const auto& begin = graph.row_begin;
    expects(!begin.empty() && begin.front() == 0, "graph row_begin must start at 0");
    expects(std::is_sorted(begin.begin(), begin.end()),
            "graph row_begin must be non-decreasing");
    expects(static_cast<std::size_t>(begin.back()) == graph.neighbors.size(),
            "graph row_begin must end at the neighbour count");
    const int n = graph.n_alive();
    expects(graph.n_satellites >= n, "graph has more survivors than satellites");
    for (int r = 0; r < n; ++r) {
        const auto row = graph.row(r);
        for (std::size_t k = 0; k < row.size(); ++k) {
            expects(row[k] >= 0 && row[k] < n, "graph neighbour out of range");
            expects(k == 0 || row[k - 1] < row[k],
                    "graph row must be strictly ascending");
        }
    }
    for (int r = 0; r < n; ++r)
        for (const int c : graph.row(r)) {
            const auto back = graph.row(c);
            expects(std::binary_search(back.begin(), back.end(), r),
                    "graph must be symmetric");
        }
}

void laplacian_multiply(const alive_graph& graph, std::span<const double> x,
                        std::span<double> y)
{
    const auto n = static_cast<std::size_t>(graph.n_alive());
    expects(x.size() == n && y.size() == n, "mat-vec operand size mismatch");
    for (std::size_t r = 0; r < n; ++r) {
        // Row r of D - A in ascending column order, which every λ₂ bit
        // rests on: the diagonal goes just before the first neighbour above r.
        const auto row = graph.row(static_cast<int>(r));
        auto it = row.begin();
        double sum = 0.0;
        for (; it != row.end() && static_cast<std::size_t>(*it) <= r; ++it)
            sum -= x[static_cast<std::size_t>(*it)];
        sum += static_cast<double>(row.size()) * x[r];
        for (; it != row.end(); ++it) sum -= x[static_cast<std::size_t>(*it)];
        y[r] = sum;
    }
}

} // namespace ssplane::spectral
