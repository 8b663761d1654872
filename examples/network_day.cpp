// A day in the life of an SS-plane network: design a constellation, wire
// its ISLs, follow routing latency and coverage through 24 hours, then
// stress the network with failure scenarios — random loss, whole-plane
// attack, and radiation-driven Poisson failures fed by each plane's daily
// fluence (paper §2.1 survivability, §5 time-aware evaluation).
//
// The failure study runs as ONE experiment campaign (`exp::run_campaign`):
// an `evaluation_context` pays the propagation pass, each step's link
// build and the failure draws once, and the survivability /
// delivered-traffic / bulk-delivery engines judge every scenario against
// it. The campaign table is printed per engine and emitted as a CSV block
// at the end. The unfailed day's pair-latency and coverage tables come from
// the same run — the baseline survivability cell and the context's step
// geometry — so they follow --sweep-step.
//
// Usage: network_day [--bandwidth=10] [--sweep-step=1800] [--seed=1]
//                    [--offered-gbps=2000] [--bulk-gb=500000]
//                    [--buffer-gb=25000] [--bulk-deadline-h=6]
//                    [--sessions=1000000]
//                    [--trace=out.json] [--metrics[=out.csv]]
//
// --trace=FILE records phase spans across the whole run and writes a Chrome
// trace-event JSON (load it at ui.perfetto.dev) plus a per-phase wall/self
// summary on stdout. --metrics dumps the counter registry as CSV, to FILE
// when given a value, else to stdout. --seed and --sessions take whole
// decimal numbers (--sessions at least 1); every other number flag takes a
// finite decimal number in the range its parse below names, e.g.
// --sweep-step in [300, 43200] s so the solar storm's 6 h onset falls on the
// grid. Anything else exits 2 before the design runs, printing nothing on
// stdout.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "constellation/sun_sync.h"
#include "core/greedy_cover.h"
#include "exp/campaign.h"
#include "lsn/scenario.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "radiation/fluence.h"
#include "radiation/solar_cycle.h"
#include "spectral/percolation.h"
#include "traffic/traffic_sweep.h"
#include "util/angles.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/table.h"

using namespace ssplane;

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    std::uint64_t seed = 0;
    std::int64_t n_sessions = 0;
    double bandwidth = 0.0;
    double sweep_step_s = 0.0;
    double cascade_hazard = 0.0;
    double cascade_escalation = 0.0;
    double storm_boost = 0.0;
    double offered_gbps = 0.0;
    double buffer_gb = 0.0;
    double bulk_gb = 0.0;
    double bulk_deadline_h = 0.0;
    try {
        seed = args.get_uint("seed", 1);
        n_sessions = static_cast<std::int64_t>(args.get_uint(
            "sessions", 1000000, 1, std::numeric_limits<std::int64_t>::max()));
        bandwidth = args.get_double("bandwidth", 10.0, 0.01, 100.0);
        // At most half a day, so the grid reaches the storm's 6 h onset.
        sweep_step_s = args.get_double("sweep-step", 1800.0, 300.0, 43200.0);
        cascade_hazard = args.get_double("cascade-hazard", 0.3, 0.0, 100.0);
        cascade_escalation = args.get_double("cascade-escalation", 0.05, 0.0, 100.0);
        storm_boost = args.get_double("storm-boost", 4000.0, 0.0, 1.0e6);
        offered_gbps = args.get_double("offered-gbps", 2000.0, 0.0, 1.0e6);
        buffer_gb = args.get_double("buffer-gb", 25000.0, 0.0, 1.0e9);
        bulk_gb = args.get_double("bulk-gb", 500000.0, 1.0, 1.0e9);
        bulk_deadline_h = args.get_double("bulk-deadline-h", 6.0, 0.1, 24.0);
    } catch (const std::invalid_argument& error) {
        std::cerr << "network_day: " << error.what() << "\n";
        return 2;
    }
    const std::string trace_path = args.get("trace", "");
    if (!trace_path.empty()) {
        obs::trace_reset();
        obs::set_tracing_enabled(true);
    }

    std::cout << "=== SS network, 24-hour simulation ===\n";

    // Design the constellation.
    const demand::population_model population;
    const demand::demand_model demand(population);
    const auto problem = core::make_design_problem(demand, bandwidth);
    const auto design = core::greedy_ss_cover(problem);
    std::cout << "designed " << design.planes.size() << " SS-planes, "
              << design.total_satellites << " satellites\n\n";

    std::vector<constellation::ss_plane> planes;
    planes.reserve(design.planes.size());
    for (const auto& p : design.planes)
        planes.push_back({p.altitude_m, p.ltan_h, p.n_sats, 0.0});
    const auto epoch = astro::instant::from_calendar(2026, 6, 1, 0);
    const auto topology = lsn::build_ss_topology(planes, epoch);
    std::cout << "topology: " << topology.satellites.size() << " nodes, "
              << topology.links.size() << " inter-satellite links\n\n";

    // Gateways: the twelve most populous gazetteer metros (well separated),
    // instead of the hard-coded default dozen.
    const auto stations = traffic::stations_from_cities(12);

    // --- Failure-scenario sweep: how does the same day look as satellites
    // fail? Giant-component fraction tracks topological fragmentation; the
    // all-pairs reachability and p95 inflation track user-visible service.
    lsn::scenario_sweep_options sweep;
    sweep.duration_s = 86400.0;
    sweep.step_s = sweep_step_s;

    // Per-plane daily electron fluence drives the radiation scenario: each
    // designed plane flies at its own altitude, so doses differ per plane.
    const radiation::radiation_environment env;
    std::vector<double> plane_fluence;
    plane_fluence.reserve(planes.size());
    for (const auto& p : planes) {
        const double incl = constellation::sun_synchronous_inclination_rad(p.altitude_m)
                                .value_or(deg2rad(97.5));
        plane_fluence.push_back(
            radiation::daily_fluence(env, p.altitude_m, incl, epoch, 0.0, 60.0)
                .electrons_cm2_mev);
    }

    exp::experiment_plan plan;
    plan.scenarios.push_back({"baseline", {}});
    {
        lsn::failure_scenario s;
        s.mode = lsn::failure_mode::random_loss;
        s.loss_fraction = 0.1;
        s.seed = seed;
        plan.scenarios.push_back({"random 10%", s});
        s.loss_fraction = 0.3;
        plan.scenarios.push_back({"random 30%", s});
    }
    {
        lsn::failure_scenario s;
        s.mode = lsn::failure_mode::plane_attack;
        s.planes_attacked = std::min<int>(2, static_cast<int>(planes.size()));
        s.seed = seed;
        plan.scenarios.push_back(
            {"plane attack x" + std::to_string(s.planes_attacked), s});
    }
    {
        lsn::failure_scenario s;
        s.mode = lsn::failure_mode::radiation_poisson;
        s.plane_daily_fluence = plane_fluence;
        s.horizon_days = 5.0 * 365.25; // mission-length exposure
        s.seed = seed;
        plan.scenarios.push_back({"radiation 5y", s});
    }

    // --- Time-correlated scenarios: failures that unfold DURING the day
    // instead of before it. Kessler debris compounds plane by plane, the
    // solar storm is a mid-day fluence spike, and the greedy adversary
    // strikes whichever planes carry the most delivered traffic.
    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 2;
    cascade.cascade_base_daily_hazard = cascade_hazard;
    cascade.cascade_escalation = cascade_escalation;
    cascade.cascade_cooldown_s = 6.0 * 3600.0;
    cascade.seed = seed;
    plan.scenarios.push_back({"kessler cascade", cascade});
    {
        lsn::failure_scenario s;
        s.mode = lsn::failure_mode::solar_storm;
        s.plane_daily_fluence = plane_fluence;
        s.storm_start_s = 6.0 * 3600.0;
        s.storm_duration_s = 6.0 * 3600.0;
        // The 2026 epoch sits past the modeled cycle-24 envelope, where the
        // deterministic activity level is nearly zero — normalize it out so
        // the template injects a cycle-max-equivalent fluence spike.
        const double activity = std::max(
            radiation::solar_activity(epoch.plus_seconds(9.0 * 3600.0)), 1.0e-9);
        s.storm_fluence_multiplier = 1.0 + storm_boost / activity;
        s.seed = seed;
        plan.scenarios.push_back({"solar storm", s});
    }
    {
        lsn::failure_scenario s;
        s.mode = lsn::failure_mode::greedy_adversary;
        s.adversary_budget = std::min<int>(2, static_cast<int>(planes.size()));
        s.adversary_strike_interval_steps = 4;
        s.adversary_eval_stride = 4; // subsample the oracle's grid 4:1
        plan.scenarios.push_back({"greedy adversary", s});
    }

    // --- The three workloads as campaign engines. Survivability, delivered
    // throughput against the diurnal gravity matrix, and delay-tolerant bulk
    // delivery (time-expanded store-and-forward vs the per-epoch replication
    // floor) all judge the same scenarios on one shared context.
    traffic::traffic_sweep_options traffic_opts;
    traffic_opts.matrix.total_demand_gbps = offered_gbps;

    tempo::bulk_route_options bulk_opts;
    bulk_opts.sat_buffer_gb = buffer_gb;
    const double bulk_deadline_s = std::min(bulk_deadline_h * 3600.0, sweep.duration_s);
    const int n_gw = static_cast<int>(stations.size());
    std::vector<tempo::bulk_transfer_request> bulk_requests;
    for (int g = 0; g < n_gw; ++g)
        bulk_requests.push_back(
            {g, (g + n_gw / 2) % n_gw, bulk_gb, 0.0, bulk_deadline_s});

    // Session-level serving: N user terminals sampled from the population
    // grid (cell aggregates, so memory stays O(populated cells) even at
    // millions of sessions), judged per step against beam/satellite limits.
    serve::serving_options serving_opts;
    serving_opts.n_sessions = n_sessions;
    serving_opts.seed = seed;

    plan.engines = {
        std::make_shared<exp::survivability_engine>(),
        std::make_shared<exp::traffic_engine>(demand, traffic_opts),
        std::make_shared<exp::bulk_engine>(bulk_requests, bulk_opts),
        std::make_shared<exp::bulk_engine>(bulk_requests, bulk_opts,
                                           /*per_step_baseline=*/true),
        std::make_shared<exp::percolation_engine>(),
        std::make_shared<exp::serving_engine>(population, serving_opts)};

    // One context = one propagation pass + one failure draw per scenario,
    // shared by all (scenario, engine) cells. The greedy adversary needs a
    // delivered-traffic oracle to rank its targets — arm it with the same
    // demand model and capacities the traffic engine judges against.
    exp::evaluation_context context(topology, stations, epoch, sweep);
    context.set_adversary_oracle(demand, traffic_opts);
    const auto campaign = exp::run_campaign(plan, context);
    const int n_rows = static_cast<int>(campaign.rows.size());
    // Address engines by name, not by position in plan.engines — the two
    // bulk variants share a detail type, so a positional mix-up would not
    // be caught by the detail() type check.
    const int surv_e = campaign.engine_index("survivability");
    const int traffic_e = campaign.engine_index("traffic");
    const int bulk_e = campaign.engine_index("bulk");
    const int bulk_floor_e = campaign.engine_index("bulk_per_step");

    // The unfailed day first: routing latency between a few gateway pairs,
    // read from the baseline survivability cell's all-pairs matrices, and
    // per-station coverage — the steps at which a station's ground node
    // links to at least one satellite above the elevation mask.
    const auto& surv_baseline = exp::survivability_engine::detail(campaign.cell(0, surv_e));
    const std::pair<int, int> pairs[] = {{0, 3}, {7, 9}, {2, 5}, {0, 10}};
    table_printer table({"pair", "reach_frac", "mean_ms"});
    for (const auto& [a, b] : pairs) {
        table.row({stations[static_cast<std::size_t>(a)].name + "-" +
                       stations[static_cast<std::size_t>(b)].name,
                   format_number(surv_baseline.reachable(a, b), 4),
                   format_number(surv_baseline.mean_latency_ms(a, b), 5)});
    }
    table.print(std::cout);

    std::vector<int> covered_steps(stations.size(), 0);
    for (int step = 0; step < context.n_steps(); ++step) {
        const auto snap = context.geometry().snapshot(step);
        for (int g = 0; g < snap.n_ground; ++g)
            covered_steps[static_cast<std::size_t>(g)] +=
                !snap.arcs_of(snap.ground_node(g)).empty();
    }
    std::cout << "\nper-station coverage over the day:\n";
    table_printer cov({"station", "coverage_fraction"});
    for (std::size_t g = 0; g < stations.size(); ++g) {
        cov.row({stations[g].name,
                 format_number(static_cast<double>(covered_steps[g]) / context.n_steps(),
                               4)});
    }
    cov.print(std::cout);

    std::cout << "\nfailure-scenario sweep (" << sweep.duration_s / 3600.0 << " h, step "
              << sweep.step_s << " s):\n";
    table_printer st({"scenario", "failed", "giant_frac", "reach_frac", "mean_ms",
                      "p95_ms", "p95_inflation"});
    for (int r = 0; r < n_rows; ++r) {
        const auto& result = exp::survivability_engine::detail(campaign.cell(r, surv_e));
        st.row({campaign.rows[static_cast<std::size_t>(r)].name,
                std::to_string(campaign.rows[static_cast<std::size_t>(r)].n_failed),
                format_number(result.metrics.giant_component_fraction, 4),
                format_number(result.metrics.pair_reachable_fraction, 4),
                format_number(result.metrics.mean_latency_ms, 5),
                format_number(result.metrics.p95_latency_ms, 5),
                format_number(lsn::p95_latency_inflation(surv_baseline, result), 4)});
    }
    st.print(std::cout);

    std::cout << "\ndelivered throughput under failure ("
              << traffic_opts.matrix.total_demand_gbps << " Gbps offered, ISL "
              << traffic_opts.capacity.isl_capacity_gbps << " Gbps, uplink "
              << traffic_opts.capacity.uplink_capacity_gbps << " Gbps):\n";
    table_printer tt({"scenario", "offered_gbps", "delivered_frac", "p95_util",
                      "congested_frac", "vs_baseline"});
    const auto& traffic_baseline = exp::traffic_engine::detail(campaign.cell(0, traffic_e));
    for (int r = 0; r < n_rows; ++r) {
        const auto& result = exp::traffic_engine::detail(campaign.cell(r, traffic_e));
        tt.row({campaign.rows[static_cast<std::size_t>(r)].name,
                format_number(result.metrics.offered_gbps_mean, 5),
                format_number(result.metrics.delivered_fraction, 4),
                format_number(result.metrics.p95_link_utilization, 4),
                format_number(result.metrics.congested_link_fraction, 4),
                format_number(
                    traffic::delivered_throughput_ratio(traffic_baseline, result), 4)});
    }
    tt.print(std::cout);

    std::cout << "\nbulk delivery under failure (" << bulk_gb
              << " Gb per request, " << bulk_requests.size()
              << " requests, buffer " << bulk_opts.sat_buffer_gb
              << " Gb/sat, deadline " << bulk_deadline_s / 3600.0 << " h):\n";
    table_printer bt({"scenario", "delivered_frac", "per_step_frac", "sf_gain",
                      "max_buffer_gb", "vs_baseline"});
    const auto& bulk_baseline = exp::bulk_engine::detail(campaign.cell(0, bulk_e));
    for (int r = 0; r < n_rows; ++r) {
        const auto& expanded = exp::bulk_engine::detail(campaign.cell(r, bulk_e));
        const auto& replicated = exp::bulk_engine::detail(campaign.cell(r, bulk_floor_e));
        // Store-and-forward gain; "inf" when buffering delivers volume the
        // per-step greedy cannot move at all.
        const double gain =
            replicated.routing.delivered_gb > 0.0
                ? expanded.routing.delivered_gb / replicated.routing.delivered_gb
                : (expanded.routing.delivered_gb > 0.0
                       ? std::numeric_limits<double>::infinity()
                       : 1.0);
        bt.row({campaign.rows[static_cast<std::size_t>(r)].name,
                format_number(expanded.routing.delivered_fraction, 4),
                format_number(replicated.routing.delivered_fraction, 4),
                format_number(gain, 4),
                format_number(expanded.routing.max_buffer_gb, 5),
                format_number(
                    tempo::delivered_volume_ratio(bulk_baseline, expanded), 4)});
    }
    bt.print(std::cout);

    // --- User-level SLOs: the same scenarios seen by individual sessions
    // instead of gateway aggregates. served_frac counts sessions at full
    // SLO; p99 is the floor rate 99% of session-steps meet or exceed;
    // restore_s is how long the served fraction stayed below the restore
    // threshold after first dipping (-1 = never dipped, inf = never
    // recovered within the day).
    const int serving_e = campaign.engine_index("serving");
    const auto& serving_grid =
        std::dynamic_pointer_cast<const exp::serving_engine>(
            campaign.engines[static_cast<std::size_t>(serving_e)])
            ->grid();
    std::cout << "\nuser-level SLOs (" << serving_grid.total_sessions
              << " sessions over " << serving_grid.cells.size()
              << " populated cells, " << serving_opts.session_rate_mbps
              << " Mbps/session):\n";
    table_printer ut({"scenario", "served_frac", "p50_mbps", "p99_mbps",
                      "dropped_max", "degraded_max", "restore_s"});
    for (int r = 0; r < n_rows; ++r) {
        ut.row({campaign.rows[static_cast<std::size_t>(r)].name,
                format_number(campaign.value(r, "serving.served_fraction_mean"), 4),
                format_number(campaign.value(r, "serving.p50_session_rate_mbps"), 4),
                format_number(campaign.value(r, "serving.p99_session_rate_mbps"), 4),
                format_number(campaign.value(r, "serving.sessions_dropped_max")),
                format_number(campaign.value(r, "serving.sessions_degraded_max")),
                format_number(campaign.value(r, "serving.time_to_restore_s"), 1)});
    }
    ut.print(std::cout);

    // --- Structural robustness: the spectral/percolation view of the same
    // scenarios. λ₂ (algebraic connectivity of the alive subgraph) tracks
    // how well-knit the survivors stay, the giant-component fraction tracks
    // raw fragmentation, and susceptibility χ spikes near the percolation
    // transition — together they say HOW a scenario erodes the network, not
    // just how much service it costs.
    std::cout << "\nstructural robustness under failure (day means; chi = "
                 "finite-cluster susceptibility; lambda2_approx = steps whose "
                 "solve hit the iteration cap):\n";
    table_printer pt({"scenario", "lambda2_mean", "lambda2_min", "giant_frac",
                      "chi_max", "clustering", "lambda2_approx"});
    for (int r = 0; r < n_rows; ++r) {
        pt.row({campaign.rows[static_cast<std::size_t>(r)].name,
                format_number(campaign.value(r, "percolation.lambda2_mean"), 4),
                format_number(campaign.value(r, "percolation.lambda2_min"), 4),
                format_number(
                    campaign.value(r, "percolation.giant_fraction_mean"), 4),
                format_number(
                    campaign.value(r, "percolation.susceptibility_max"), 4),
                format_number(campaign.value(r, "percolation.clustering_mean"), 4),
                format_number(
                    campaign.value(r, "percolation.lambda2_unconverged_steps"))});
    }
    pt.print(std::cout);

    // --- Masking threshold: escalate a targeted plane attack on the static
    // ISL wiring until fragmentation dominates (alive-giant fraction below
    // the collapse ratio, or λ₂ at zero). Fractions at or past the
    // threshold are damage the constellation can no longer mask.
    spectral::masking_threshold_options mask_opts;
    mask_opts.mode = lsn::failure_mode::plane_attack;
    mask_opts.seed = seed;
    mask_opts.stop_at_collapse = false; // full degradation curve
    const auto mask_curve = spectral::find_masking_threshold(topology, mask_opts);
    std::cout << "\nescalating plane attack on the static wiring ("
              << mask_opts.n_seeds << " draws per step, collapse ratio "
              << format_number(mask_opts.gcc_collapse_ratio, 2) << "):\n";
    table_printer mt({"attack_frac", "lambda2", "giant_alive_frac", "chi",
                      "clustering", "masked"});
    for (const auto& step : mask_curve.steps) {
        const bool masked = mask_curve.threshold_fraction < 0.0 ||
                            step.fraction < mask_curve.threshold_fraction;
        mt.row({format_number(step.fraction, 3),
                format_number(step.mean_lambda2, 4),
                format_number(step.mean_giant_alive_fraction, 4),
                format_number(step.mean_susceptibility, 4),
                format_number(step.mean_clustering, 4), masked ? "yes" : "NO"});
    }
    mt.print(std::cout);
    if (mask_curve.threshold_fraction >= 0.0)
        std::cout << "masking threshold: "
                  << format_number(mask_curve.threshold_fraction, 3)
                  << " of planes — attacks below this fraction degrade "
                     "service, attacks past it fragment the network\n";
    else
        std::cout << "masking threshold: none up to "
                  << format_number(mask_opts.max_fraction, 3)
                  << " — the wiring masks every probed attack fraction\n";

    // --- Why timelines matter: the same total loss hurts very differently
    // depending on WHEN it lands. Replay the cascade's final failure set as
    // a one-shot draw at t=0 and put the two delivered-throughput-vs-time
    // traces side by side — the cascade keeps delivering while it unfolds.
    const auto& cascade_timeline = context.timeline(cascade);
    const auto final_mask =
        cascade_timeline.step(cascade_timeline.n_steps - 1);
    const auto one_shot = traffic::run_traffic_sweep_timeline(
        context.geometry(),
        lsn::failure_timeline::from_static_mask({final_mask.begin(), final_mask.end()}),
        demand, traffic_opts);
    int cascade_row = 0;
    for (std::size_t r = 0; r < campaign.rows.size(); ++r)
        if (campaign.rows[r].name == "kessler cascade")
            cascade_row = static_cast<int>(r);
    const auto& cascade_traffic =
        exp::traffic_engine::detail(campaign.cell(cascade_row, traffic_e));

    std::cout << "\ndelivered throughput vs time: cascade ("
              << cascade_timeline.final_n_failed()
              << " losses unfolding over the day) vs one-shot draw of the "
                 "same satellites at t=0:\n";
    table_printer ct({"t_h", "cascade_failed", "cascade_delivered_frac",
                      "one_shot_delivered_frac"});
    const std::size_t n_steps = context.offsets().size();
    const std::size_t stride = std::max<std::size_t>(1, n_steps / 12);
    for (std::size_t i = 0; i < n_steps; i += stride) {
        ct.row({format_number(context.offsets()[i] / 3600.0, 3),
                std::to_string(cascade_timeline.n_failed_at(static_cast<int>(i))),
                format_number(cascade_traffic.step_delivered_fraction[i], 4),
                format_number(one_shot.step_delivered_fraction[i], 4)});
    }
    ct.print(std::cout);

    // --- Gateway aggregate vs user experience under the SAME cascade: the
    // gateway-level delivered fraction can look healthy while individual
    // sessions are dropped or starved — that is exactly what the p99 floor
    // and per-step dropped counts expose.
    const auto& cascade_serving =
        exp::serving_engine::detail(campaign.cell(cascade_row, serving_e));
    std::cout << "\ngateway aggregate vs user-level SLO under the kessler "
                 "cascade:\n";
    table_printer gu({"t_h", "failed", "gateway_delivered_frac",
                      "user_served_frac", "user_p99_mbps", "users_dropped"});
    for (std::size_t i = 0; i < n_steps; i += stride) {
        gu.row({format_number(context.offsets()[i] / 3600.0, 3),
                std::to_string(cascade_timeline.n_failed_at(static_cast<int>(i))),
                format_number(cascade_traffic.step_delivered_fraction[i], 4),
                format_number(cascade_serving.step_served_fraction[i], 4),
                format_number(cascade_serving.step_p99_session_rate_mbps[i], 4),
                format_number(cascade_serving.step_sessions_dropped[i])});
    }
    gu.print(std::cout);

    // The whole campaign as one machine-readable table: scenario axes ->
    // every engine's named metric columns.
    std::cout << "\ncampaign CSV (scenario axes -> metric columns):\n";
    campaign.write_csv(std::cout);

    // Per-step degradation trajectories for every scenario — the timeline
    // counterpart of the scalar table above.
    std::cout << "\nper-step campaign CSV (scenario x step -> trace columns):\n";
    campaign.write_step_csv(std::cout);

    // Cache telemetry the campaign collected while it ran: how much work
    // the shared context actually saved.
    std::cout << "\ncontext cache telemetry:\n"
              << "  timeline cache: " << campaign.cache.timeline_hits
              << " hits / " << campaign.cache.timeline_misses
              << " misses (hit rate "
              << format_number(campaign.cache.timeline_hit_rate(), 4) << ")\n"
              << "  snapshot rebuilds: " << campaign.cache.snapshot_builds << "\n";

    if (!trace_path.empty()) {
        obs::set_tracing_enabled(false);
        std::ofstream trace_out(trace_path);
        if (!trace_out) {
            std::cerr << "cannot write trace file: " << trace_path << "\n";
            return 1;
        }
        obs::write_chrome_trace(trace_out);
        std::cout << "\nwrote Chrome trace (" << obs::trace_snapshot().size()
                  << " spans) to " << trace_path << "\nphase summary:\n";
        obs::write_phase_summary(std::cout);
    }
    if (args.has("metrics")) {
        const std::string metrics_path = args.get("metrics", "");
        if (metrics_path.empty()) {
            std::cout << "\nmetrics registry:\n";
            obs::write_metrics_csv(std::cout);
        } else {
            std::ofstream metrics_out(metrics_path);
            if (!metrics_out) {
                std::cerr << "cannot write metrics file: " << metrics_path << "\n";
                return 1;
            }
            obs::write_metrics_csv(metrics_out);
            std::cout << "\nwrote metrics CSV to " << metrics_path << "\n";
        }
    }
    return 0;
}
