// The flow assignment loop without route record, replay or pair
// retirement, test-side only.
//
// The independent reference of the flow-assignment tests: every round
// freezes the congestion costs and runs one bounded node-level Dijkstra
// tree (`lsn::reference_dijkstra`) per source still owed demand,
// unreachable gateways included (their tree then exhausts the source's
// component and their path is empty). `traffic::assign_flows` routes on the
// round's component `lsn::router`, skips cut-off pairs and replays recorded
// trees; none of that may move a bit of what this loop computes.
#ifndef SSPLANE_TESTS_TRAFFIC_REFERENCE_FLOW_ASSIGNMENT_H
#define SSPLANE_TESTS_TRAFFIC_REFERENCE_FLOW_ASSIGNMENT_H

#include <cstdint>
#include <vector>

#include "traffic/flow_assignment.h"

namespace ssplane::traffic {

/// What the reference loop computes.
struct reference_flows {
    double delivered_gbps = 0.0;
    double latency_flow_sum_gbps_s = 0.0;
    std::vector<double> pair_delivered_gbps; ///< Row-major symmetric n x n.
    std::vector<double> link_load_gbps;      ///< By snapshot link id.
    /// Per snapshot node: 1 when it lay on a path some pair was routed along.
    std::vector<std::uint8_t> on_queried_path;
};

/// `assign_flows` as the plain loop. No counters, no input checks.
reference_flows reference_assign_flows(const lsn::network_snapshot& snapshot,
                                       const traffic_matrix& matrix,
                                       const capacity_options& options = {});

} // namespace ssplane::traffic

#endif // SSPLANE_TESTS_TRAFFIC_REFERENCE_FLOW_ASSIGNMENT_H
