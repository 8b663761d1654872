// Time-stepped LSN simulation: latency series between ground endpoints and
// coverage statistics (paper §5(1)/(3): time-aware evaluation methodology).
#ifndef SSPLANE_LSN_SIMULATOR_H
#define SSPLANE_LSN_SIMULATOR_H

#include "lsn/routing.h"
#include "lsn/scenario.h"
#include "lsn/topology.h"

namespace ssplane::lsn {

/// Latency statistics for one ground-station pair over the simulation.
struct latency_stats {
    double mean_latency_ms = 0.0;
    double p95_latency_ms = 0.0;
    double min_latency_ms = 0.0;
    double max_latency_ms = 0.0;
    double reachable_fraction = 0.0; ///< Fraction of steps with a route.
    double mean_hops = 0.0;
};

/// Route the pair at every time step and summarize.
latency_stats simulate_pair_latency(const lsn_topology& topology,
                                    const std::vector<ground_station>& stations,
                                    int ground_a, int ground_b,
                                    const astro::instant& epoch,
                                    const scenario_sweep_options& options = {});

/// Fraction of time steps at which `station` sees >= 1 satellite above the
/// minimum elevation (the SS design's predictable-coverage-gap metric).
double coverage_fraction(const lsn_topology& topology,
                         const ground_station& station,
                         const astro::instant& epoch,
                         const scenario_sweep_options& options = {});

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_SIMULATOR_H
