#include "capped_topology.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/expects.h"

namespace ssplane::lsn {

lsn_topology build_walker_capped_topology(const constellation::walker_parameters& params,
                                          int max_degree)
{
    expects(max_degree >= 2,
            "degree-capped topology needs max_degree >= 2 for the base ring");
    lsn_topology topo;
    topo.satellites = constellation::make_walker_delta(params);

    const int p = params.n_planes;
    const int s = params.sats_per_plane;
    const int n = p * s;
    const auto index = [s](int plane, int slot) { return plane * s + slot; };

    std::vector<int> degree(static_cast<std::size_t>(n), 0);
    std::set<std::pair<int, int>> seen;
    const auto add_link = [&](int a, int b, bool enforce_cap) {
        if (a == b) return; // tiny shells: a chord/closure can land on itself
        const std::pair<int, int> key = std::minmax(a, b);
        if (seen.count(key) != 0) return;
        if (enforce_cap && (degree[static_cast<std::size_t>(a)] >= max_degree ||
                            degree[static_cast<std::size_t>(b)] >= max_degree))
            return;
        seen.insert(key);
        topo.links.push_back({key.first, key.second});
        ++degree[static_cast<std::size_t>(a)];
        ++degree[static_cast<std::size_t>(b)];
    };

    // Serpentine Hamiltonian ring — the degree-2 backbone. Never
    // cap-checked: it is what makes every capped variant connected.
    for (int plane = 0; plane < p; ++plane)
        for (int slot = 0; slot + 1 < s; ++slot)
            add_link(index(plane, slot), index(plane, slot + 1), false);
    for (int plane = 0; plane < p; ++plane)
        add_link(index(plane, s - 1), index((plane + 1) % p, 0), false);

    // Chord layers: one per unit of degree beyond the ring, with growing
    // plane reach. Deterministic greedy order (layer, plane, slot).
    for (int layer = 1; layer <= max_degree - 2; ++layer) {
        const int reach = layer + 1;
        for (int plane = 0; plane < p; ++plane) {
            if (plane % (2 * reach) >= reach) continue;
            for (int slot = 0; slot < s; ++slot)
                add_link(index(plane, slot), index((plane + reach) % p, slot), true);
        }
    }
    return topo;
}

std::vector<int> link_degrees(const lsn_topology& topology)
{
    std::vector<int> degree(topology.satellites.size(), 0);
    for (const auto& link : topology.links) {
        expects(link.a >= 0 && link.b >= 0 &&
                    link.a < static_cast<int>(degree.size()) &&
                    link.b < static_cast<int>(degree.size()),
                "link endpoints must be satellite indices");
        ++degree[static_cast<std::size_t>(link.a)];
        ++degree[static_cast<std::size_t>(link.b)];
    }
    return degree;
}

} // namespace ssplane::lsn
