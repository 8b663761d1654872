// Masked snapshot build, test-side only.
//
// The reference for the one masking rule: the mask is applied inside the
// ISL and ground loops, so a failed satellite's links are never built at
// all. `sweep_geometry::snapshot` and `snapshot_builder::
// snapshot_from_positions` instead build each step's unfailed links and
// filter them; both must match this, link for link and bit for bit.
#ifndef SSPLANE_TESTS_LSN_MASKED_BUILD_H
#define SSPLANE_TESTS_LSN_MASKED_BUILD_H

#include <cstdint>
#include <span>
#include <vector>

#include "lsn/topology.h"
#include "util/vec3.h"

namespace ssplane::lsn {

/// One step's graph under `failed` (empty = none; else size n_satellites,
/// nonzero = failed): the topology's ISLs between live satellites within
/// `max_isl_range_m`, in topology order, then each station's links to live
/// satellites above `min_elevation_rad`, in satellite order, through
/// `make_network_snapshot`.
network_snapshot masked_build(const lsn_topology& topology,
                              const std::vector<ground_station>& stations,
                              double min_elevation_rad, double max_isl_range_m,
                              const std::vector<vec3>& sat_positions_ecef,
                              std::span<const std::uint8_t> failed);

} // namespace ssplane::lsn

#endif // SSPLANE_TESTS_LSN_MASKED_BUILD_H
