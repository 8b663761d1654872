// Performance microbenchmarks (google-benchmark) for the library's hot
// paths: propagation, flux evaluation, map sweeps, plane masks, greedy
// iterations and routing.
//
// Besides the console table, every run writes BENCH_perf.json (benchmark
// name -> ns/op; path overridable via SSPLANE_BENCH_JSON) so successive PRs
// can track the perf trajectory mechanically.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "astro/propagator.h"
#include "bench_util.h"
#include "core/design_problem.h"
#include "exp/campaign.h"
#include "core/greedy_cover.h"
#include "core/plane_trace.h"
#include "demand/demand_model.h"
#include "demand/population.h"
#include "geo/coverage.h"
#include "lsn/routing.h"
#include "lsn/scenario.h"
#include "obs/trace.h"
#include "radiation/belts.h"
#include "radiation/fluence.h"
#include "spectral/lanczos.h"
#include "serve/serving_sweep.h"
#include "spectral/percolation.h"
#include "tempo/bulk_router.h"
#include "traffic/adversary.h"
#include "traffic/flow_assignment.h"
#include "traffic/traffic_matrix.h"
#include "util/angles.h"

using namespace ssplane;

namespace {

const demand::population_model& bench_population()
{
    static const demand::population_model model;
    return model;
}

void bm_propagator_state(benchmark::State& state)
{
    const astro::j2_propagator orbit(
        astro::circular_orbit(560.0e3, deg2rad(97.6), 0.3, 0.1), astro::instant::j2000());
    double t = 0.0;
    for (auto _ : state) {
        t += 10.0;
        benchmark::DoNotOptimize(orbit.state_at(astro::instant::j2000().plus_seconds(t)));
    }
}
BENCHMARK(bm_propagator_state);

void bm_flux_eval(benchmark::State& state)
{
    const radiation::radiation_environment env;
    const vec3 p = astro::geodetic_to_ecef({-25.0, -50.0, 560.0e3});
    for (auto _ : state) {
        benchmark::DoNotOptimize(env.flux(p, 1.0));
    }
}
BENCHMARK(bm_flux_eval);

void bm_flux_map_1deg(benchmark::State& state)
{
    const radiation::radiation_environment env;
    const auto t = astro::instant::from_calendar(2014, 3, 15);
    for (auto _ : state) {
        benchmark::DoNotOptimize(radiation::flux_map_at_altitude(env, 560.0e3, 1.0, t));
    }
}
BENCHMARK(bm_flux_map_1deg)->Unit(benchmark::kMillisecond);

void bm_max_flux_map_32days(benchmark::State& state)
{
    const radiation::radiation_environment env;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            radiation::max_electron_flux_map(env, 560.0e3, 1.0, 32, 7));
    }
}
BENCHMARK(bm_max_flux_map_32days)->Unit(benchmark::kMillisecond);

void bm_daily_fluence(benchmark::State& state)
{
    const radiation::radiation_environment env;
    const auto day = astro::instant::from_calendar(2014, 3, 15);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            radiation::daily_fluence(env, 560.0e3, deg2rad(65.0), day, 0.0, 10.0));
    }
}
BENCHMARK(bm_daily_fluence)->Unit(benchmark::kMillisecond);

void bm_plane_mask(benchmark::State& state)
{
    const geo::lat_tod_grid grid(0.5, 0.25);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::plane_coverage_mask(grid, deg2rad(97.6), 13.5, deg2rad(7.25)));
    }
}
BENCHMARK(bm_plane_mask);

void bm_greedy_small(benchmark::State& state)
{
    demand::demand_options opts;
    opts.lat_cell_deg = 2.0;
    opts.tod_cell_h = 1.0;
    const demand::demand_model model(bench_population(), opts);
    const auto problem = core::make_design_problem(model, 5.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::greedy_ss_cover(problem));
    }
}
BENCHMARK(bm_greedy_small)->Unit(benchmark::kMillisecond);

/// 40x40 Walker grid shared by the scenario-sweep benches.
const lsn::lsn_topology& bench_walker_grid()
{
    static const lsn::lsn_topology topo = [] {
        constellation::walker_parameters p;
        p.altitude_m = 550.0e3;
        p.inclination_rad = deg2rad(53.0);
        p.n_planes = 40;
        p.sats_per_plane = 40;
        p.phasing_f = 1;
        return lsn::build_walker_grid_topology(p);
    }();
    return topo;
}

constexpr double sweep_step_s = 3600.0; // hourly steps over one day

void bm_scenario_sweep(benchmark::State& state)
{
    // 12-station all-pairs day sweep on the 40x40 grid through the batched
    // engine: one propagation pass, one snapshot and 11 Dijkstra sources per
    // step.
    const auto& topo = bench_walker_grid();
    const auto stations = lsn::default_ground_stations();
    const auto epoch = astro::instant::j2000();
    lsn::scenario_sweep_options opts;
    opts.step_s = sweep_step_s;
    for (auto _ : state) {
        const lsn::snapshot_builder builder(topo, stations, epoch, opts.min_elevation_rad,
                                            opts.max_isl_range_m);
        const auto offsets = lsn::sweep_offsets(opts.duration_s, opts.step_s);
        benchmark::DoNotOptimize(lsn::run_scenario_sweep_timeline(
            builder, offsets, builder.positions_at_offsets(offsets),
            lsn::sample_failure_timeline(topo, {}, offsets, epoch)));
    }
}
BENCHMARK(bm_scenario_sweep)->Unit(benchmark::kMillisecond);

void bm_scenario_sweep_baseline(benchmark::State& state)
{
    // The pre-engine route to the same all-pairs day sweep: one time loop
    // per station pair (as simulate_pair_latency used to run), every step
    // rebuilding the snapshot from scratch through snapshot_at with its
    // per-call propagator construction.
    const auto& topo = bench_walker_grid();
    const auto stations = lsn::default_ground_stations();
    const auto epoch = astro::instant::j2000();
    const int n = static_cast<int>(stations.size());
    for (auto _ : state) {
        double total_latency = 0.0;
        for (int a = 0; a + 1 < n; ++a) {
            for (int b = a + 1; b < n; ++b) {
                for (double t_off = 0.0; t_off < 86400.0; t_off += sweep_step_s) {
                    const auto snap = lsn::snapshot_at(
                        topo, stations, epoch, epoch.plus_seconds(t_off), deg2rad(30.0));
                    const auto route = lsn::ground_route(snap, a, b);
                    if (route.reachable) total_latency += route.latency_s;
                }
            }
        }
        benchmark::DoNotOptimize(total_latency);
    }
}
BENCHMARK(bm_scenario_sweep_baseline)->Unit(benchmark::kMillisecond);

/// Prebuilt day sweep of snapshots + diurnal matrices for the traffic
/// assignment benches: both contenders consume identical inputs, so the
/// measured contrast is purely the assignment algorithm.
struct traffic_bench_inputs {
    std::vector<lsn::network_snapshot> snapshots;
    std::vector<traffic::traffic_matrix> matrices;
    traffic::capacity_options capacity;
};

const traffic_bench_inputs& bench_traffic_inputs()
{
    static const traffic_bench_inputs inputs = [] {
        traffic_bench_inputs in;
        const auto& topo = bench_walker_grid();
        const auto stations = traffic::stations_from_cities(12);
        const auto epoch = astro::instant::j2000();
        const lsn::snapshot_builder builder(topo, stations, epoch, deg2rad(30.0));
        const auto offsets = lsn::sweep_offsets(86400.0, sweep_step_s);
        const auto positions = builder.positions_at_offsets(offsets);
        const demand::demand_model model(bench_population());
        traffic::traffic_matrix_options matrix_opts;
        // Offered load well past the link capacities below, so every
        // water-filling round stays busy in both contenders.
        matrix_opts.total_demand_gbps = 4000.0;
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            in.snapshots.push_back(builder.snapshot_from_positions(positions[i]));
            in.matrices.push_back(traffic::build_traffic_matrix(
                model, stations, epoch.plus_seconds(offsets[i]), matrix_opts));
        }
        return in;
    }();
    return inputs;
}

void bm_traffic_assign(benchmark::State& state)
{
    // Capacity-aware day sweep on the 40x40 grid, 12 gateways: per round one
    // Dijkstra tree per source gateway serves all of its pairs.
    const auto& in = bench_traffic_inputs();
    for (auto _ : state) {
        double delivered = 0.0;
        for (std::size_t i = 0; i < in.snapshots.size(); ++i)
            delivered +=
                traffic::assign_flows(in.snapshots[i], in.matrices[i], in.capacity)
                    .delivered_gbps;
        benchmark::DoNotOptimize(delivered);
    }
}
BENCHMARK(bm_traffic_assign)->Unit(benchmark::kMillisecond);

void bm_traffic_assign_baseline(benchmark::State& state)
{
    // The naive route to the same assignment: every (pair, round) rebuilds
    // the congestion-weighted graph and runs its own point-to-point Dijkstra.
    const auto& in = bench_traffic_inputs();
    for (auto _ : state) {
        double delivered = 0.0;
        for (std::size_t i = 0; i < in.snapshots.size(); ++i)
            delivered += traffic::assign_flows_per_pair_baseline(
                             in.snapshots[i], in.matrices[i], in.capacity)
                             .delivered_gbps;
        benchmark::DoNotOptimize(delivered);
    }
}
BENCHMARK(bm_traffic_assign_baseline)->Unit(benchmark::kMillisecond);

/// Prebuilt day sweep for the bulk-transfer benches: both contenders route
/// the same 12 antipodal-ish gateway pulses over identical snapshots, so
/// the contrast is the time-expanded solver vs per-epoch replication.
struct bulk_bench_inputs {
    std::vector<lsn::network_snapshot> snapshots;
    std::vector<double> offsets;
    std::vector<tempo::bulk_transfer_request> requests;
    tempo::bulk_route_options options;
    tempo::time_expanded_graph graph;
};

bulk_bench_inputs& bench_bulk_inputs()
{
    static bulk_bench_inputs inputs = [] {
        bulk_bench_inputs in;
        const auto& topo = bench_walker_grid();
        const auto stations = traffic::stations_from_cities(12);
        const auto epoch = astro::instant::j2000();
        const lsn::snapshot_builder builder(topo, stations, epoch, deg2rad(30.0));
        in.offsets = lsn::sweep_offsets(86400.0, sweep_step_s);
        const auto positions = builder.positions_at_offsets(in.offsets);
        in.snapshots.reserve(in.offsets.size());
        for (const auto& pos : positions)
            in.snapshots.push_back(builder.snapshot_from_positions(pos));
        in.options.sat_buffer_gb = 256.0;
        // At this volume the day grid is UNcontended: both contenders
        // deliver 100% (raise the pulses ~10x and the per-step greedy keeps
        // delivering while the expanded solver hits the 256 GB buffer cap).
        // The pair therefore measures solver cost, not delivery quality —
        // see the note on bm_bulk_route_per_step_floor.
        for (int g = 0; g < 12; ++g)
            in.requests.push_back({g, (g + 6) % 12, 2.0e5, 0.0, 86400.0});
        in.graph = tempo::build_time_expanded_graph_timeline(in.snapshots, in.offsets,
                                                             {}, in.options);
        return in;
    }();
    return inputs;
}

void bm_bulk_route(benchmark::State& state)
{
    // Earliest-completion augmentation over the residual time-expanded
    // graph; the graph build is paid once outside the loop, reset_loads
    // restores a clean residual state per iteration.
    auto& in = bench_bulk_inputs();
    for (auto _ : state) {
        in.graph.reset_loads();
        benchmark::DoNotOptimize(
            tempo::route_bulk_transfers(in.graph, in.requests).delivered_gb);
    }
}
BENCHMARK(bm_bulk_route)->Unit(benchmark::kMillisecond);

void bm_bulk_route_per_step_floor(benchmark::State& state)
{
    // Per-epoch replication floor: replay the per-snapshot greedy
    // (`assign_flows`) on every epoch's remaining volumes, no buffering.
    //
    // Unlike the other *_baseline pairs this is NOT a slower route to the
    // same answer — it is a cheaper solver for a weaker model, and on this
    // uncontended fixture it is ~1.4x FASTER than bm_bulk_route (the
    // expanded solver walks 25 layers of residual time-expanded arcs per
    // augmentation; the floor runs one small Dijkstra pass per step). The
    // expanded solver earns its cost only when buffering matters: under
    // contention or outages it delivers volume the floor cannot move at
    // all (see the sf_gain column in the network_day failure table).
    const auto& in = bench_bulk_inputs();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tempo::route_bulk_transfers_per_step_baseline(in.snapshots, in.offsets,
                                                          in.requests, in.options)
                .delivered_gb);
    }
}
BENCHMARK(bm_bulk_route_per_step_floor)->Unit(benchmark::kMillisecond);

/// Shared fixture of the campaign benches: a 24x24 Walker grid, 6 gateways,
/// a half-hourly day grid, four failure scenarios and the three metric
/// engines. Both contenders compute identical metrics; the contrast is one
/// shared evaluation context vs the three legacy one-shot entry points run
/// back-to-back per scenario (each re-paying propagator construction, the
/// batched propagation pass and the failure draw).
/// Static-storage demand model: the traffic engine keeps a reference, so
/// its lifetime must outlive the fixture struct the plan lives in.
const demand::demand_model& bench_demand()
{
    static const demand::demand_model model(bench_population());
    return model;
}

struct campaign_bench_inputs {
    lsn::lsn_topology topo;
    std::vector<lsn::ground_station> stations;
    lsn::scenario_sweep_options grid;
    traffic::traffic_sweep_options traffic_opts;
    std::vector<tempo::bulk_transfer_request> requests;
    tempo::bulk_route_options bulk_opts;
    exp::experiment_plan plan;
};

const campaign_bench_inputs& bench_campaign_inputs()
{
    static const campaign_bench_inputs inputs = [] {
        campaign_bench_inputs in;
        constellation::walker_parameters p;
        p.altitude_m = 550.0e3;
        p.inclination_rad = deg2rad(53.0);
        p.n_planes = 24;
        p.sats_per_plane = 24;
        p.phasing_f = 1;
        in.topo = lsn::build_walker_grid_topology(p);
        in.stations = traffic::stations_from_cities(6);
        in.grid.step_s = 1800.0;
        in.grid.min_elevation_rad = deg2rad(30.0);
        in.traffic_opts.matrix.total_demand_gbps = 2000.0;
        in.bulk_opts.sat_buffer_gb = 256.0;
        for (int g = 0; g < 6; ++g)
            in.requests.push_back({g, (g + 3) % 6, 5.0e4, 0.0, 86400.0});

        in.plan.scenarios.push_back({"baseline", {}});
        lsn::failure_scenario loss;
        loss.mode = lsn::failure_mode::random_loss;
        loss.loss_fraction = 0.2;
        loss.seed = 1;
        in.plan.scenarios.push_back({"random_20", loss});
        lsn::failure_scenario attack;
        attack.mode = lsn::failure_mode::plane_attack;
        attack.planes_attacked = 3;
        attack.seed = 1;
        in.plan.scenarios.push_back({"attack_3", attack});
        lsn::failure_scenario radiation;
        radiation.mode = lsn::failure_mode::radiation_poisson;
        radiation.plane_daily_fluence.assign(24, 2.0e10);
        radiation.horizon_days = 5.0 * 365.25;
        radiation.seed = 1;
        in.plan.scenarios.push_back({"radiation_5y", radiation});

        in.plan.engines = {
            std::make_shared<exp::survivability_engine>(),
            std::make_shared<exp::traffic_engine>(bench_demand(), in.traffic_opts),
            std::make_shared<exp::bulk_engine>(in.requests, in.bulk_opts)};
        return in;
    }();
    return inputs;
}

void bm_campaign(benchmark::State& state)
{
    // 4 scenarios x 3 engines through one run_campaign: the context pays
    // propagator construction, the batched propagation pass and the four
    // failure draws once, and the 12 cells fan out over the pool.
    const auto& in = bench_campaign_inputs();
    for (auto _ : state) {
        const exp::evaluation_context context(in.topo, in.stations,
                                              astro::instant::j2000(), in.grid);
        benchmark::DoNotOptimize(exp::run_campaign(in.plan, context).cells.size());
    }
}
BENCHMARK(bm_campaign)->Unit(benchmark::kMillisecond);

void bm_instrumented_campaign(benchmark::State& state)
{
    // bm_campaign with the full observability stack hot: counters always
    // run; this also turns the runtime tracing gate on, so every span
    // records timestamps into the per-thread buffers. The delta vs
    // bm_campaign is the all-in instrumentation overhead (acceptance bar:
    // within a few percent).
    const auto& in = bench_campaign_inputs();
    for (auto _ : state) {
        obs::trace_reset();
        obs::set_tracing_enabled(true);
        const exp::evaluation_context context(in.topo, in.stations,
                                              astro::instant::j2000(), in.grid);
        benchmark::DoNotOptimize(exp::run_campaign(in.plan, context).cells.size());
        obs::set_tracing_enabled(false);
    }
    obs::trace_reset();
}
BENCHMARK(bm_instrumented_campaign)->Unit(benchmark::kMillisecond);

void bm_campaign_separate_baseline(benchmark::State& state)
{
    // The pre-campaign route to the same 12 cells: the three engine entry
    // points run back-to-back per scenario, each on its own builder,
    // propagation pass and failure timeline.
    const auto& in = bench_campaign_inputs();
    const auto epoch = astro::instant::j2000();
    const auto separate = [&](const lsn::failure_scenario& scenario, const auto& sweep) {
        const lsn::snapshot_builder builder(in.topo, in.stations, epoch,
                                            in.grid.min_elevation_rad,
                                            in.grid.max_isl_range_m);
        const auto offsets = lsn::sweep_offsets(in.grid.duration_s, in.grid.step_s);
        return sweep(builder, offsets, builder.positions_at_offsets(offsets),
                     lsn::sample_failure_timeline(in.topo, scenario, offsets, epoch));
    };
    for (auto _ : state) {
        double sink = 0.0;
        for (const auto& spec : in.plan.scenarios) {
            sink += separate(spec.scenario, [](const auto&... args) {
                return lsn::run_scenario_sweep_timeline(args...)
                    .metrics.pair_reachable_fraction;
            });
            sink += separate(spec.scenario, [&](const auto&... args) {
                return traffic::run_traffic_sweep_timeline(args..., bench_demand(),
                                                           in.traffic_opts)
                    .metrics.delivered_gbps_mean;
            });
            sink += separate(spec.scenario, [&](const auto&... args) {
                return tempo::run_bulk_sweep_timeline(args..., in.requests, in.bulk_opts)
                    .routing.delivered_gb;
            });
        }
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(bm_campaign_separate_baseline)->Unit(benchmark::kMillisecond);

void bm_cascade_timeline(benchmark::State& state)
{
    // Per-step Kessler draw over a full day on the 40x40 grid: the cost of
    // growing a 25-row failure timeline (debris bookkeeping + one split RNG
    // stream per step) instead of one static mask.
    const auto& topo = bench_walker_grid();
    const auto offsets = lsn::sweep_offsets(86400.0, sweep_step_s);
    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 4;
    cascade.cascade_base_daily_hazard = 0.2;
    cascade.cascade_escalation = 0.1;
    cascade.seed = 7;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            lsn::sample_failure_timeline(topo, cascade, offsets,
                                         astro::instant::j2000())
                .final_n_failed());
    }
}
BENCHMARK(bm_cascade_timeline)->Unit(benchmark::kMicrosecond);

/// Epoch of the network_day example.
astro::instant network_day_epoch()
{
    return astro::instant::from_calendar(2026, 6, 1, 0);
}

/// The network_day constellation: the greedy SS design (3250 satellites,
/// 130 planes) wired at the example's epoch, built once.
const lsn::lsn_topology& network_day_topology()
{
    static const lsn::lsn_topology topology = [] {
        const auto design =
            core::greedy_ss_cover(core::make_design_problem(bench_demand(), 10.0));
        std::vector<constellation::ss_plane> planes;
        for (const auto& p : design.planes)
            planes.push_back({p.altitude_m, p.ltan_h, p.n_sats, 0.0});
        return lsn::build_ss_topology(planes, network_day_epoch());
    }();
    return topology;
}

void bm_adversary(benchmark::State& state)
{
    // One greedy-adversary strike on the network_day configuration: the SS
    // design, its 12 city gateways, 2000 Gbps offered and the half-hourly
    // day grid, planned on every 12th step (4 planning steps). Each
    // iteration scores all 130 planes — one base assignment per planning
    // step plus every (plane, step) trial the base routing does not prune
    // — so this tracks the in-situ search the campaign prefetch waits on.
    const lsn::scenario_sweep_options grid;
    const lsn::snapshot_builder builder(network_day_topology(),
                                        traffic::stations_from_cities(12),
                                        network_day_epoch(), grid.min_elevation_rad,
                                        grid.max_isl_range_m);
    const auto offsets = lsn::sweep_offsets(86400.0, 1800.0);
    const auto positions = builder.positions_at_offsets(offsets);
    traffic::traffic_sweep_options options;
    options.matrix.total_demand_gbps = 2000.0;
    lsn::failure_scenario adversary;
    adversary.mode = lsn::failure_mode::greedy_adversary;
    adversary.adversary_budget = 1;
    adversary.adversary_eval_stride = 12;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            traffic::generate_adversary_timeline(builder, offsets, positions,
                                                 adversary, bench_demand(), options)
                .final_n_failed());
    }
}
BENCHMARK(bm_adversary)->Unit(benchmark::kMillisecond);

void bm_dijkstra(benchmark::State& state)
{
    // Random-ish ring-of-cliques graph of ~1000 nodes.
    lsn::network_snapshot snap;
    const int n = 1000;
    snap.n_satellites = n;
    snap.positions_ecef_m.resize(static_cast<std::size_t>(n));
    snap.adjacency.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        for (int k = 1; k <= 4; ++k) {
            const int j = (i + k) % n;
            snap.adjacency[static_cast<std::size_t>(i)].push_back({j, 0.001 * k});
            snap.adjacency[static_cast<std::size_t>(j)].push_back({i, 0.001 * k});
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(lsn::shortest_route(snap, 0, n / 2));
    }
}
BENCHMARK(bm_dijkstra)->Unit(benchmark::kMicrosecond);

void bm_lanczos(benchmark::State& state)
{
    // λ₂ of the network_day constellation: the greedy SS design (3250
    // satellites, 130 planes) under its range-gated snapshot at the epoch,
    // unfailed — the connected solve the percolation engine pays on every
    // baseline step (λ₂ ≈ 5.8e-4, ~230 Lanczos steps to the default
    // residual tolerance). Disconnected steps never reach the solver. The
    // design and CSR assembly are paid once outside the loop, so this
    // tracks the eigensolver alone.
    static const spectral::csr_matrix laplacian = [] {
        const lsn::snapshot_builder builder(network_day_topology(),
                                            traffic::stations_from_cities(12),
                                            network_day_epoch(), deg2rad(25.0));
        return spectral::build_laplacian(builder.snapshot(0.0));
    }();
    int iterations = 0;
    for (auto _ : state) {
        const auto solve = spectral::algebraic_connectivity(laplacian);
        iterations = solve.iterations;
        benchmark::DoNotOptimize(solve.lambda2);
    }
    state.counters["nodes"] = benchmark::Counter(laplacian.n);
    state.counters["iterations"] = benchmark::Counter(iterations);
}
BENCHMARK(bm_lanczos)->Unit(benchmark::kMillisecond);

void bm_percolation(benchmark::State& state)
{
    // Union-find + susceptibility + clustering over the 40x40 grid under a
    // 6-plane attack, λ₂ off: the per-step structural pass of the
    // percolation engine minus the eigensolve (tracked by bm_lanczos).
    const auto& topo = bench_walker_grid();
    lsn::failure_scenario attack;
    attack.mode = lsn::failure_mode::plane_attack;
    attack.planes_attacked = 6;
    attack.seed = 7;
    const auto failed = lsn::sample_failures(topo, attack);
    spectral::percolation_options opts;
    opts.compute_lambda2 = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            spectral::analyze_percolation(topo, failed, opts).susceptibility);
    }
}
BENCHMARK(bm_percolation)->Unit(benchmark::kMicrosecond);

void bm_session_assign(benchmark::State& state)
{
    // One serving step at production session scale: a 1M-session grid
    // (sampled once, outside the loop — the per-sweep cost) packed onto the
    // 40x40 grid's beams. The gate the serving engine lives under: one
    // step's assignment must sustain >= 1M sessions with memory O(populated
    // cells), so the measured quantity is ns per (session x step).
    const auto& topo = bench_walker_grid();
    const lsn::snapshot_builder builder(topo, lsn::default_ground_stations(),
                                        astro::instant::j2000(), deg2rad(25.0));
    const std::vector<double> offsets{0.0};
    const auto positions = builder.positions_at_offsets(offsets);
    serve::serving_options opts;
    opts.n_sessions = 1000000;
    opts.seed = 1;
    const auto grid = serve::sample_session_grid(bench_population(), opts);
    const auto t = builder.epoch();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            serve::assign_beams(grid, positions[0], {}, t, opts).delivered_gbps);
    }
    state.counters["sessions"] =
        benchmark::Counter(static_cast<double>(grid.total_sessions));
}
BENCHMARK(bm_session_assign)->Unit(benchmark::kMillisecond);

/// Console reporter that also collects per-benchmark ns/op and writes
/// BENCH_perf.json on teardown.
class perf_json_reporter : public benchmark::ConsoleReporter {
public:
    explicit perf_json_reporter(std::string path) : path_(std::move(path)) {}

    void ReportRuns(const std::vector<Run>& runs) override
    {
        // Only Run members present in every google-benchmark release are
        // touched here (error_occurred was removed in 1.8, skipped added
        // there) so the bench builds against old and new libbenchmark.
        for (const Run& run : runs) {
            if (run.run_type != Run::RT_Iteration) continue;
            const double per_op_s =
                run.iterations > 0
                    ? run.real_accumulated_time / static_cast<double>(run.iterations)
                    : 0.0;
            // Repetitions of one benchmark share a name: accumulate and emit
            // the mean so the JSON has one key per benchmark.
            const std::string name = run.benchmark_name();
            auto it = std::find_if(results_.begin(), results_.end(),
                                   [&](const auto& r) { return r.name == name; });
            if (it == results_.end()) it = results_.insert(results_.end(), {name, 0.0, 0});
            it->ns_sum += per_op_s * 1e9;
            ++it->count;
        }
        ConsoleReporter::ReportRuns(runs);
    }

    void Finalize() override
    {
        ConsoleReporter::Finalize();
        std::vector<std::pair<std::string, double>> means;
        means.reserve(results_.size());
        for (const auto& r : results_)
            means.emplace_back(r.name, r.ns_sum / static_cast<double>(r.count));
        if (!bench::write_bench_json(path_, means))
            std::cerr << "failed to write " << path_ << "\n";
        else
            std::cout << "wrote " << path_ << " (" << means.size() << " benchmarks)\n";
    }

private:
    struct accum {
        std::string name;
        double ns_sum = 0.0;
        int count = 0;
    };
    std::string path_;
    std::vector<accum> results_;
};

} // namespace

int main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    const char* json_path = std::getenv("SSPLANE_BENCH_JSON");
    perf_json_reporter reporter(json_path ? json_path : "BENCH_perf.json");
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}
