// Inter-satellite-link topologies and time-sliced network snapshots
// (paper §5 research agenda: time-aware topology and routing).
//
// Walker shells use the standard +Grid (intra-plane ring + same-slot links
// to adjacent planes). SS constellations use intra-plane rings plus
// same-slot links between planes adjacent in LTAN.
#ifndef SSPLANE_LSN_TOPOLOGY_H
#define SSPLANE_LSN_TOPOLOGY_H

#include <span>
#include <string>
#include <vector>

#include "astro/frames.h"
#include "constellation/sun_sync.h"
#include "constellation/walker.h"
#include "util/expects.h"

namespace ssplane::lsn {

/// Undirected inter-satellite link between satellite indices.
struct isl_link {
    int a = 0;
    int b = 0;
};

/// A constellation plus its (static) ISL wiring.
struct lsn_topology {
    std::vector<constellation::satellite> satellites;
    std::vector<isl_link> links;
};

/// +Grid topology for one Walker shell.
lsn_topology build_walker_grid_topology(const constellation::walker_parameters& params);

/// Ring + LTAN-adjacent topology for an SS constellation.
lsn_topology build_ss_topology(const std::vector<constellation::ss_plane>& planes,
                               const astro::instant& epoch);

/// A ground endpoint (user terminal or gateway).
struct ground_station {
    std::string name;
    double latitude_deg = 0.0;
    double longitude_deg = 0.0;
};

/// A dozen large metros spread over latitudes/longitudes, for experiments.
std::vector<ground_station> default_ground_stations();

/// Instantaneous network graph: satellites first, then ground stations.
/// The one owner of link identity: each live undirected link is stored once
/// in `links`, its index there being its link id, and the CSR rows list
/// each node's links in id order. `make_network_snapshot` builds it.
struct network_snapshot {
    struct link {
        int a = 0; ///< Lower node index.
        int b = 0; ///< Higher node index (the ground node of an uplink).
        double latency_s = 0.0;
    };
    struct arc {
        int to = 0;   ///< Neighbour node.
        int link = 0; ///< Link id.
    };
    int n_satellites = 0;
    int n_ground = 0;
    std::vector<link> links;
    std::vector<int> arc_begin; ///< CSR offsets, size n_nodes() + 1.
    std::vector<arc> arcs;

    int n_nodes() const noexcept { return n_satellites + n_ground; }

    int ground_node(int ground_index) const
    {
        expects(ground_index >= 0 && ground_index < n_ground,
                "ground index out of range");
        return n_satellites + ground_index;
    }

    /// The CSR row of `node`: its links in id order.
    std::span<const arc> arcs_of(int node) const
    {
        expects(node >= 0 && node < n_nodes(), "node index out of range");
        const auto row = static_cast<std::size_t>(node);
        return {arcs.data() + arc_begin[row], arcs.data() + arc_begin[row + 1]};
    }

    /// Id of the first link joining `u` to `v` in `u`'s row; -1 if none.
    int link_between(int u, int v) const;
};

/// The one snapshot factory: `links` (either orientation, distinct
/// endpoints among the n_satellites + n_ground nodes, a non-negative
/// latency, else `contract_violation`) are stored with a < b, each under
/// its input position as link id.
network_snapshot make_network_snapshot(int n_satellites, int n_ground,
                                       std::vector<network_snapshot::link> links);

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_TOPOLOGY_H
