// Workload inputs of the campaign benchmark: the network_day configuration
// (12 city gateways, a 24 h horizon, 2000 Gbps offered) on either the greedy
// SS design or a Walker-delta +Grid shell, with a per-workload subset of
// scenarios and engines. Everything random is drawn from the `--seed`
// argument, so one seed always yields the same inputs.
#ifndef CAMPAIGN_BENCH_WORKLOAD_H
#define CAMPAIGN_BENCH_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "demand/demand_model.h"
#include "demand/population.h"
#include "exp/campaign.h"

namespace bench {

using namespace ssplane;

/// Static description of one workload.
struct workload_spec {
    std::string name;
    bool walker = false;          ///< Walker +Grid shell instead of the SS design.
    double step_s = 0.0;          ///< Sweep step of the 24 h grid.
    std::int64_t sessions = 0;    ///< Serving population (0 = no serving engine).
    std::vector<std::string> scenarios; ///< Scenario names, network_day order.
    std::vector<std::string> engines;   ///< Engine names, network_day order.
    /// Seed-grid size: each seeded scenario runs this many draws, seeds
    /// k * seed_grid + i for --seed k (1 = the scenario's own seed only).
    int seed_grid = 1;
    /// Campaigns a --trace 0 run times at least, whatever --seconds says.
    int min_campaigns = 1;
};

/// The named workload (`ss_day`, `ss_adversary`, `walker_static`), or
/// nullptr for an unknown name.
const workload_spec* find_workload(const std::string& name);

/// Names of every workload, in definition order.
std::vector<std::string> workload_names();

/// Wall time of each set-up phase, timed from outside the library calls.
struct setup_phases {
    double design_s = 0.0;    ///< greedy_ss_cover, or the Walker shell builder.
    double fluence_s = 0.0;   ///< Per-plane daily electron fluence.
    double grid_s = 0.0;      ///< Serving session grid sampling.
};

/// Every input of one campaign run. Members reference each other (the
/// context holds the topology, the engines hold the demand and population
/// models), so a set-up lives behind a unique_ptr and never moves.
struct workload_setup {
    demand::population_model population;
    demand::demand_model demand{population};
    lsn::lsn_topology topology;
    std::vector<lsn::ground_station> stations;
    astro::instant epoch;
    lsn::scenario_sweep_options sweep;
    std::vector<double> plane_fluence;
    traffic::traffic_sweep_options traffic_opts;
    tempo::bulk_route_options bulk_opts;
    std::vector<tempo::bulk_transfer_request> bulk_requests;
    exp::percolation_engine_options percolation_opts;
    serve::serving_options serving_opts;
    std::unique_ptr<exp::evaluation_context> context;
    exp::experiment_plan plan;
    setup_phases phases;

    workload_setup() = default;
    workload_setup(const workload_setup&) = delete;
    workload_setup& operator=(const workload_setup&) = delete;
};

/// Build every input of `spec` for `seed`: the design, the topology, the
/// per-plane fluence (when a scenario reads it), the evaluation context and
/// the forced serving grid — everything before `run_campaign`.
std::unique_ptr<workload_setup> build_setup(const workload_spec& spec,
                                            std::uint64_t seed);

/// A fresh, cold evaluation context over `setup`'s topology and grid, armed
/// with the adversary oracle when the plan has a greedy adversary.
std::unique_ptr<exp::evaluation_context> make_context(const workload_setup& setup);

/// The same workload on a coarse grid (a step of at least 6 h, 20k
/// sessions) for the determinism self-test.
workload_spec coarse(const workload_spec& spec);

} // namespace bench

#endif // CAMPAIGN_BENCH_WORKLOAD_H
