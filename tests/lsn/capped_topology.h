// Test-side topology fixtures: the degree-capped Walker shell that the
// robustness, percolation, routing, traffic and serving tests run on, and
// the per-satellite ISL degrees they check against. No program builds
// either, so both live here and not in src/lsn.
#ifndef SSPLANE_TESTS_LSN_CAPPED_TOPOLOGY_H
#define SSPLANE_TESTS_LSN_CAPPED_TOPOLOGY_H

#include <vector>

#include "lsn/topology.h"

namespace ssplane::lsn {

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

} // namespace ssplane::lsn

#endif // SSPLANE_TESTS_LSN_CAPPED_TOPOLOGY_H
