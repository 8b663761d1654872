// Topologies and demand shared by the traffic suites that check an exact
// shortcut (the adversary's pruning, route replay, pair retirement)
// against the plain computation it skips.
#ifndef SSPLANE_TESTS_TRAFFIC_EQUIVALENCE_FIXTURES_H
#define SSPLANE_TESTS_TRAFFIC_EQUIVALENCE_FIXTURES_H

#include <vector>

#include "demand/demand_model.h"
#include "lsn/topology.h"

namespace ssplane::traffic {

/// One topology of the equivalence suites.
struct equivalence_fixture {
    const char* name;
    lsn::lsn_topology topology;
};

/// A 10 x 10 Walker +Grid shell at 53 deg (about two thirds of its links
/// share a latency bit for bit with another, so equal-cost paths tie), the
/// same shell capped at three ISLs per satellite, and an 8-plane SS design.
std::vector<equivalence_fixture> equivalence_fixtures();

/// The default population-weighted demand model, built once.
const demand::demand_model& test_demand();

} // namespace ssplane::traffic

#endif // SSPLANE_TESTS_TRAFFIC_EQUIVALENCE_FIXTURES_H
