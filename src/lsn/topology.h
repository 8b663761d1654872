// Inter-satellite-link topologies and time-sliced network snapshots
// (paper §5 research agenda: time-aware topology and routing).
//
// Walker shells use the standard +Grid (intra-plane ring + same-slot links
// to adjacent planes). SS constellations use intra-plane rings plus
// same-slot links between planes adjacent in LTAN.
#ifndef SSPLANE_LSN_TOPOLOGY_H
#define SSPLANE_LSN_TOPOLOGY_H

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

/// Degree-capped Walker topology for robustness studies (the percolation
/// suite's ISL-terminal-count axis). The wiring is built in layers:
///
///   * degree 2 — a serpentine global ring: each plane's slots form a
///     path, stitched plane-to-plane into one Hamiltonian cycle, so even
///     the cheapest terminal count yields a connected network;
///   * each further unit of degree adds one layer of same-slot chord
///     links whose plane reach grows with the layer (reach 2, 3, ... —
///     layer r starts from planes with `plane % (2*reach) < reach`, so
///     chords tile the shell without piling onto one plane).
///
/// Longer-reach chords bridge longer runs of destroyed planes, which is
/// exactly why plane-attack resilience climbs with the degree cap. Links
/// never exceed `max_degree` per satellite: chords that would are greedily
/// skipped in deterministic (layer, plane, slot) order. Requires
/// `max_degree >= 2`.
lsn_topology build_walker_capped_topology(const constellation::walker_parameters& params,
                                          int max_degree);

/// Per-satellite ISL degree of the static wiring.
std::vector<int> link_degrees(const lsn_topology& topology);

/// Largest per-satellite ISL degree (0 when there are no satellites).
int max_link_degree(const lsn_topology& topology);

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
/// `snapshot_builder::snapshot_from_positions` (lsn/scenario.h) builds it.
struct network_snapshot {
    struct edge {
        int to = 0;
        double latency_s = 0.0;
    };
    std::vector<vec3> positions_ecef_m;     ///< Node positions (sats + ground).
    std::vector<std::vector<edge>> adjacency;
    int n_satellites = 0;
    int n_ground = 0;

    int ground_node(int ground_index) const
    {
        expects(ground_index >= 0 && ground_index < n_ground,
                "ground index out of range");
        return n_satellites + ground_index;
    }
};

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_TOPOLOGY_H
