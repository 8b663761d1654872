#include "lsn/topology.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "astro/constants.h"
#include "astro/propagator.h"
#include "util/expects.h"

namespace ssplane::lsn {

namespace {

/// Ring links of one plane of `s` satellites starting at node `start`. The
/// closing link is a distinct edge only for s > 2: a 2-ring's wraparound
/// would duplicate its single edge, breaking link-cut failure semantics.
void append_ring_links(std::vector<isl_link>& links, int start, int s)
{
    for (int slot = 0; slot + 1 < s; ++slot)
        links.push_back({start + slot, start + slot + 1});
    if (s > 2) links.push_back({start + s - 1, start});
}

} // namespace

lsn_topology build_walker_grid_topology(const constellation::walker_parameters& params)
{
    lsn_topology topo;
    topo.satellites = constellation::make_walker_delta(params);

    const int p = params.n_planes;
    const int s = params.sats_per_plane;
    const auto index = [s](int plane, int slot) { return plane * s + slot; };

    // Intra-plane rings.
    for (int plane = 0; plane < p; ++plane)
        append_ring_links(topo.links, index(plane, 0), s);
    // Cross-plane +Grid links at matching slots. The seam plane p-1 -> 0 is
    // a distinct edge only for p > 2 (p == 2 would re-emit plane 0 -> 1).
    for (int plane = 0; plane + 1 < p; ++plane)
        for (int slot = 0; slot < s; ++slot)
            topo.links.push_back({index(plane, slot), index(plane + 1, slot)});
    if (p > 2)
        for (int slot = 0; slot < s; ++slot)
            topo.links.push_back({index(p - 1, slot), index(0, slot)});
    return topo;
}

lsn_topology build_ss_topology(const std::vector<constellation::ss_plane>& planes,
                               const astro::instant& epoch)
{
    lsn_topology topo;
    topo.satellites = constellation::make_ss_constellation(planes, epoch);

    // Order planes by LTAN so "adjacent" means adjacent in local time.
    std::vector<std::size_t> order(planes.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return planes[a].ltan_h < planes[b].ltan_h;
    });

    // Plane start offsets in the satellite array (planes are concatenated).
    std::vector<int> start(planes.size() + 1, 0);
    for (std::size_t i = 0; i < planes.size(); ++i)
        start[i + 1] = start[i] + planes[i].n_sats;

    for (std::size_t i = 0; i < planes.size(); ++i)
        append_ring_links(topo.links, start[i], planes[i].n_sats);
    // LTAN-adjacent cross links at matching slots (modulo differing sizes).
    for (std::size_t k = 0; k + 1 < order.size(); ++k) {
        const std::size_t i = order[k];
        const std::size_t j = order[k + 1];
        const int si = planes[i].n_sats;
        const int sj = planes[j].n_sats;
        const int n_cross = std::min(si, sj);
        for (int slot = 0; slot < n_cross; ++slot) {
            const int other = slot * sj / si;
            topo.links.push_back({start[i] + slot, start[j] + other});
        }
    }
    return topo;
}

std::vector<ground_station> default_ground_stations()
{
    return {
        {"New York", 40.71, -74.01},   {"Los Angeles", 34.05, -118.24},
        {"Sao Paulo", -23.55, -46.63}, {"London", 51.51, -0.13},
        {"Lagos", 6.52, 3.38},         {"Johannesburg", -26.20, 28.05},
        {"Dubai", 25.20, 55.27},       {"Delhi", 28.61, 77.21},
        {"Singapore", 1.35, 103.82},   {"Tokyo", 35.69, 139.69},
        {"Sydney", -33.87, 151.21},    {"Anchorage", 61.22, -149.90},
    };
}

network_snapshot make_network_snapshot(int n_satellites, int n_ground,
                                       std::vector<network_snapshot::link> links)
{
    expects(n_satellites >= 0 && n_ground >= 0, "node counts must be non-negative");
    network_snapshot snap;
    snap.n_satellites = n_satellites;
    snap.n_ground = n_ground;
    const int n = snap.n_nodes();
    snap.arc_begin.assign(static_cast<std::size_t>(n) + 1, 0);
    for (auto& link : links) {
        expects(link.a >= 0 && link.b >= 0 && link.a < n && link.b < n && link.a != link.b,
                "a link must join two distinct snapshot nodes");
        expects(link.latency_s >= 0.0, "link latency must be non-negative");
        if (link.a > link.b) std::swap(link.a, link.b);
        ++snap.arc_begin[static_cast<std::size_t>(link.a) + 1];
        ++snap.arc_begin[static_cast<std::size_t>(link.b) + 1];
    }
    std::partial_sum(snap.arc_begin.begin(), snap.arc_begin.end(), snap.arc_begin.begin());

    // Filling the rows in link order lists each node's links in id order.
    snap.arcs.resize(2 * links.size());
    std::vector<std::size_t> next(snap.arc_begin.begin(), snap.arc_begin.end() - 1);
    for (int id = 0; id < static_cast<int>(links.size()); ++id) {
        const auto& link = links[static_cast<std::size_t>(id)];
        snap.arcs[next[static_cast<std::size_t>(link.a)]++] = {link.b, id};
        snap.arcs[next[static_cast<std::size_t>(link.b)]++] = {link.a, id};
    }
    snap.links = std::move(links);
    return snap;
}

int network_snapshot::link_between(int u, int v) const
{
    for (const auto& out : arcs_of(u))
        if (out.to == v) return out.link;
    return -1;
}

} // namespace ssplane::lsn
