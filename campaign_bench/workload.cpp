#include "workload.h"

#include <algorithm>
#include <cmath>

#include "constellation/sun_sync.h"
#include "core/greedy_cover.h"
#include "radiation/fluence.h"
#include "radiation/solar_cycle.h"
#include "timing.h"
#include "traffic/traffic_matrix.h"
#include "util/angles.h"

namespace bench {

namespace {

const std::vector<workload_spec>& workloads()
{
    // The step and session count are chosen so one cold campaign takes
    // 5 to 20 s on 4 cores; the scenario and engine knobs are the
    // network_day example's. walker_static's timelines are static, so each
    // of its steps analyzes the same graph again: it trades steps for
    // draws, 12 per scenario at a 12 h step. A single draw's cost, and
    // whether `random 30%` hits the known lambda2 defect, varies with the
    // seed; the mean over 12 draws varies much less. ss_day's peak memory
    // depends on which of its uneven cells overlap on the pool, so it runs
    // two campaigns and reports the higher peak.
    static const std::vector<workload_spec> specs{
        {"ss_day", false, 14400.0, 250000,
         {"baseline", "random 10%", "random 30%", "plane attack x2", "radiation 5y",
          "kessler cascade", "solar storm", "greedy adversary"},
         {"survivability", "traffic", "bulk", "bulk_per_step", "percolation",
          "serving"},
         1,
         2},
        {"ss_adversary", false, 14400.0, 0,
         {"kessler cascade", "greedy adversary"},
         {"traffic"}},
        {"walker_static", true, 43200.0, 250000,
         {"baseline", "random 10%", "random 30%", "plane attack x8"},
         {"survivability", "percolation", "serving"},
         12},
    };
    return specs;
}

bool wants(const std::vector<std::string>& names, const std::string& name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

const workload_spec* find_workload(const std::string& name)
{
    for (const auto& spec : workloads())
        if (spec.name == name) return &spec;
    return nullptr;
}

std::vector<std::string> workload_names()
{
    std::vector<std::string> names;
    for (const auto& spec : workloads()) names.push_back(spec.name);
    return names;
}

workload_spec coarse(const workload_spec& spec)
{
    workload_spec small = spec;
    small.step_s = std::max(small.step_s, 21600.0);
    if (small.sessions > 0) small.sessions = 20000;
    return small;
}

std::unique_ptr<workload_setup> build_setup(const workload_spec& spec,
                                            std::uint64_t seed)
{
    auto setup = std::make_unique<workload_setup>();
    auto& s = *setup;
    s.epoch = astro::instant::from_calendar(2026, 6, 1, 0);
    s.stations = traffic::stations_from_cities(12);
    s.sweep.duration_s = 86400.0;
    s.sweep.step_s = spec.step_s;

    // --- Design: the paper's greedy SS cover, or the Walker comparison shell.
    std::vector<constellation::ss_plane> planes;
    auto t = clock_type::now();
    if (spec.walker) {
        constellation::walker_parameters shell;
        shell.altitude_m = 550.0e3;
        shell.inclination_rad = deg2rad(53.0);
        shell.n_planes = 72;
        shell.sats_per_plane = 45;
        shell.phasing_f = 1;
        s.topology = lsn::build_walker_grid_topology(shell);
        s.phases.design_s = seconds_since(t);
    } else {
        const auto problem = core::make_design_problem(s.demand, 10.0);
        const auto design = core::greedy_ss_cover(problem);
        s.phases.design_s = seconds_since(t);
        for (const auto& p : design.planes)
            planes.push_back({p.altitude_m, p.ltan_h, p.n_sats, 0.0});
        s.topology = lsn::build_ss_topology(planes, s.epoch);
    }
    const int n_planes = lsn::plane_count(s.topology);

    // --- Per-plane daily fluence, only when a scenario reads it.
    if (wants(spec.scenarios, "radiation 5y") || wants(spec.scenarios, "solar storm")) {
        t = clock_type::now();
        const radiation::radiation_environment env;
        for (const auto& p : planes) {
            const double incl =
                constellation::sun_synchronous_inclination_rad(p.altitude_m)
                    .value_or(deg2rad(97.5));
            s.plane_fluence.push_back(
                radiation::daily_fluence(env, p.altitude_m, incl, s.epoch, 0.0, 60.0)
                    .electrons_cm2_mev);
        }
        s.phases.fluence_s = seconds_since(t);
    }

    // --- Scenarios, with the network_day knobs.
    std::vector<exp::scenario_spec> all;
    all.push_back({"baseline", {}});
    {
        lsn::failure_scenario f;
        f.mode = lsn::failure_mode::random_loss;
        f.seed = seed;
        f.loss_fraction = 0.1;
        all.push_back({"random 10%", f});
        f.loss_fraction = 0.3;
        all.push_back({"random 30%", f});
    }
    for (const int attacked : {2, 8}) {
        lsn::failure_scenario f;
        f.mode = lsn::failure_mode::plane_attack;
        f.planes_attacked = std::min(attacked, n_planes);
        f.seed = seed;
        all.push_back({"plane attack x" + std::to_string(attacked), f});
    }
    if (!s.plane_fluence.empty()) {
        lsn::failure_scenario f;
        f.mode = lsn::failure_mode::radiation_poisson;
        f.plane_daily_fluence = s.plane_fluence;
        f.horizon_days = 5.0 * 365.25;
        f.seed = seed;
        all.push_back({"radiation 5y", f});
    }
    {
        lsn::failure_scenario f;
        f.mode = lsn::failure_mode::kessler_cascade;
        f.cascade_initial_hits = 2;
        f.cascade_base_daily_hazard = 0.3;
        f.cascade_escalation = 0.05;
        f.cascade_cooldown_s = 6.0 * 3600.0;
        f.seed = seed;
        all.push_back({"kessler cascade", f});
    }
    if (!s.plane_fluence.empty()) {
        lsn::failure_scenario f;
        f.mode = lsn::failure_mode::solar_storm;
        f.plane_daily_fluence = s.plane_fluence;
        f.storm_start_s = 6.0 * 3600.0;
        f.storm_duration_s = 6.0 * 3600.0;
        const double activity = std::max(
            radiation::solar_activity(s.epoch.plus_seconds(9.0 * 3600.0)), 1.0e-9);
        f.storm_fluence_multiplier = 1.0 + 4000.0 / activity;
        f.seed = seed;
        all.push_back({"solar storm", f});
    }
    {
        // network_day strikes every 4 of its 30 min steps and plans on every
        // 4th step, i.e. 2 h apart. At a coarser step the knobs keep the
        // 2 h cadence where the grid allows it and never drop below one
        // step: the planning grid then spans every step, at least as many
        // as the pool has threads.
        const int two_hours = std::max(1, static_cast<int>(std::lround(7200.0 / spec.step_s)));
        lsn::failure_scenario f;
        f.mode = lsn::failure_mode::greedy_adversary;
        f.adversary_budget = std::min(2, n_planes);
        f.adversary_strike_interval_steps = two_hours;
        f.adversary_eval_stride = two_hours;
        all.push_back({"greedy adversary", f});
    }
    for (const auto& name : spec.scenarios)
        for (const auto& candidate : all)
            if (candidate.name == name) s.plan.scenarios.push_back(candidate);
    if (spec.seed_grid > 1)
        for (int i = 0; i < spec.seed_grid; ++i)
            s.plan.seeds.push_back(seed * static_cast<std::uint64_t>(spec.seed_grid) +
                                   static_cast<std::uint64_t>(i));

    // --- Engines, with the network_day knobs.
    s.traffic_opts.matrix.total_demand_gbps = 2000.0;
    s.bulk_opts.sat_buffer_gb = 25000.0;
    const int n_gw = static_cast<int>(s.stations.size());
    for (int g = 0; g < n_gw; ++g)
        s.bulk_requests.push_back({g, (g + n_gw / 2) % n_gw, 500000.0, 0.0, 6.0 * 3600.0});
    s.percolation_opts.compute_masking_thresholds = false;
    s.serving_opts.n_sessions = spec.sessions;
    s.serving_opts.seed = seed;

    std::shared_ptr<const exp::serving_engine> serving;
    for (const auto& name : spec.engines) {
        if (name == "survivability")
            s.plan.engines.push_back(std::make_shared<exp::survivability_engine>());
        else if (name == "traffic")
            s.plan.engines.push_back(
                std::make_shared<exp::traffic_engine>(s.demand, s.traffic_opts));
        else if (name == "bulk" || name == "bulk_per_step")
            s.plan.engines.push_back(std::make_shared<exp::bulk_engine>(
                s.bulk_requests, s.bulk_opts, name == "bulk_per_step"));
        else if (name == "percolation")
            s.plan.engines.push_back(
                std::make_shared<exp::percolation_engine>(s.percolation_opts));
        else if (name == "serving") {
            serving = std::make_shared<exp::serving_engine>(s.population, s.serving_opts);
            s.plan.engines.push_back(serving);
        }
    }

    // --- The shared context: snapshot builder + the batched propagation pass.
    s.context = make_context(s);

    // --- Force the lazily sampled session grid, so it lands in set-up.
    if (serving) {
        t = clock_type::now();
        (void)serving->grid();
        s.phases.grid_s = seconds_since(t);
    }
    return setup;
}

std::unique_ptr<exp::evaluation_context> make_context(const workload_setup& setup)
{
    auto context = std::make_unique<exp::evaluation_context>(
        setup.topology, setup.stations, setup.epoch, setup.sweep);
    for (const auto& spec : setup.plan.scenarios)
        if (spec.scenario.mode == lsn::failure_mode::greedy_adversary) {
            context->set_adversary_oracle(setup.demand, setup.traffic_opts);
            break;
        }
    return context;
}

} // namespace bench
