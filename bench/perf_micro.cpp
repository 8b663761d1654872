// Performance microbenchmarks (google-benchmark) for the library's hot
// paths: propagation, flux evaluation, map sweeps, plane masks, greedy
// iterations and the network layer. Network-layer fixtures run on the
// network_day shape (see the section comment below).
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
#include "spectral/laplacian.h"
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

// --- Network layer on the network_day shape --------------------------------
//
// Every network-layer fixture below feeds its kernel what the network_day
// example feeds it: the greedy SS design (3250 satellites, 130 planes), its
// 12 city gateways and the half-hourly day grid. Only bm_campaign and
// bm_instrumented_campaign keep a smaller fixture of their own: they are the
// observability-overhead contrast pair, not a fixture of the real run.

/// Static-storage demand model: the traffic engine keeps a reference, so
/// its lifetime must outlive any fixture struct a plan lives in.
const demand::demand_model& bench_demand()
{
    static const demand::demand_model model(bench_population());
    return model;
}

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

/// The network_day sweep grid: 24 hours at 30-minute steps (48 steps),
/// default elevation mask and ISL range.
lsn::scenario_sweep_options network_day_grid()
{
    lsn::scenario_sweep_options grid;
    grid.step_s = 1800.0;
    return grid;
}

/// The network_day evaluation context: snapshot builder over the 12 city
/// gateways, the day grid and its one batched propagation pass.
const exp::evaluation_context& network_day_context()
{
    static const exp::evaluation_context context(network_day_topology(),
                                                 traffic::stations_from_cities(12),
                                                 network_day_epoch(), network_day_grid());
    return context;
}

/// The day's 48 unfailed snapshots, taken once from the context's geometry.
const std::vector<lsn::network_snapshot>& network_day_snapshots()
{
    static const std::vector<lsn::network_snapshot> snapshots = [] {
        const auto& geometry = network_day_context().geometry();
        std::vector<lsn::network_snapshot> out;
        out.reserve(static_cast<std::size_t>(geometry.n_steps()));
        for (int step = 0; step < geometry.n_steps(); ++step)
            out.push_back(geometry.snapshot(step));
        return out;
    }();
    return snapshots;
}

void bm_scenario_sweep(benchmark::State& state)
{
    // The survivability engine's unfailed day on a cold geometry: builder
    // construction, the batched propagation pass, then per step one link
    // build and 11 Dijkstra sources for the 12-gateway all-pairs matrix.
    const auto& topo = network_day_topology();
    const auto stations = traffic::stations_from_cities(12);
    const auto grid = network_day_grid();
    for (auto _ : state) {
        const lsn::sweep_geometry geometry(
            lsn::snapshot_builder(topo, stations, network_day_epoch(),
                                  grid.min_elevation_rad, grid.max_isl_range_m),
            lsn::sweep_offsets(grid.duration_s, grid.step_s));
        benchmark::DoNotOptimize(lsn::run_scenario_sweep_timeline(geometry, {}));
    }
}
BENCHMARK(bm_scenario_sweep)->Unit(benchmark::kMillisecond);

void bm_traffic_assign(benchmark::State& state)
{
    // The traffic engine's unfailed day: one capacity-aware assignment per
    // step of network_day's 2000 Gbps diurnal gravity matrix. Per round one
    // Dijkstra tree per source gateway serves all of its pairs.
    static const std::vector<traffic::traffic_matrix> matrices = [] {
        const auto& context = network_day_context();
        traffic::traffic_matrix_options options;
        options.total_demand_gbps = 2000.0;
        std::vector<traffic::traffic_matrix> out;
        for (const double offset : context.offsets())
            out.push_back(traffic::build_traffic_matrix(
                bench_demand(), context.builder().stations(),
                context.epoch().plus_seconds(offset), options));
        return out;
    }();
    const auto& snapshots = network_day_snapshots();
    const traffic::capacity_options capacity;
    for (auto _ : state) {
        double delivered = 0.0;
        for (std::size_t i = 0; i < snapshots.size(); ++i)
            delivered +=
                traffic::assign_flows(snapshots[i], matrices[i], capacity).delivered_gbps;
        benchmark::DoNotOptimize(delivered);
    }
}
BENCHMARK(bm_traffic_assign)->Unit(benchmark::kMillisecond);

/// network_day's bulk workload over its unfailed day: 12 gateway-to-
/// opposite-gateway requests of 500000 Gb due within 6 hours, 25000 Gb of
/// buffer per satellite, and the time-expanded graph built once.
struct bulk_bench_inputs {
    std::vector<double> offsets;
    std::vector<tempo::bulk_transfer_request> requests;
    tempo::bulk_route_options options;
    tempo::time_expanded_graph graph;
};

bulk_bench_inputs& bench_bulk_inputs()
{
    static bulk_bench_inputs inputs = [] {
        bulk_bench_inputs in;
        const auto offsets = network_day_context().offsets();
        in.offsets.assign(offsets.begin(), offsets.end());
        in.options.sat_buffer_gb = 25000.0;
        for (int g = 0; g < 12; ++g)
            in.requests.push_back({g, (g + 6) % 12, 5.0e5, 0.0, 6.0 * 3600.0});
        in.graph = tempo::build_time_expanded_graph_timeline(
            network_day_snapshots(), in.offsets, {}, in.options);
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
    // Not a slower route to the same answer but a cheaper solver for a
    // weaker model: the expanded solver earns its cost when buffering
    // matters, delivering volume the floor cannot move at all (see the
    // sf_gain column in the network_day failure table).
    const auto& in = bench_bulk_inputs();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tempo::route_bulk_transfers_per_step_baseline(network_day_snapshots(),
                                                          in.offsets, in.requests,
                                                          in.options)
                .delivered_gb);
    }
}
BENCHMARK(bm_bulk_route_per_step_floor)->Unit(benchmark::kMillisecond);

/// Shared fixture of the campaign benches: a 24x24 Walker grid, 6 gateways,
/// a half-hourly day grid, four failure scenarios and three metric engines.
/// bm_campaign and bm_instrumented_campaign run the identical campaign; the
/// contrast between them is the cost of the observability stack.
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

void bm_cascade_timeline(benchmark::State& state)
{
    // network_day's Kessler cascade over its day grid: growing a 48-row
    // failure timeline for 3250 satellites (debris bookkeeping + one split
    // RNG stream per step) instead of one static mask.
    const auto& context = network_day_context();
    lsn::failure_scenario cascade;
    cascade.mode = lsn::failure_mode::kessler_cascade;
    cascade.cascade_initial_hits = 2;
    cascade.cascade_base_daily_hazard = 0.3;
    cascade.cascade_escalation = 0.05;
    cascade.cascade_cooldown_s = 6.0 * 3600.0;
    cascade.seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            lsn::sample_failure_timeline(context.builder().topology(), cascade,
                                         context.offsets(), context.epoch())
                .final_n_failed());
    }
}
BENCHMARK(bm_cascade_timeline)->Unit(benchmark::kMicrosecond);

void bm_adversary(benchmark::State& state)
{
    // One greedy-adversary strike on the network_day configuration: the SS
    // design, its 12 city gateways, 2000 Gbps offered and the half-hourly
    // day grid, planned on every 12th step (4 planning steps). Each
    // iteration scores all 130 planes — one base assignment per planning
    // step plus every (plane, step) trial the base routing does not prune
    // — so this tracks the in-situ search the campaign prefetch waits on.
    // The context's geometry builds the planning steps' links in the first
    // iteration; every trial after only filters them, as in a campaign.
    const auto& context = network_day_context();
    traffic::traffic_sweep_options options;
    options.matrix.total_demand_gbps = 2000.0;
    lsn::failure_scenario adversary;
    adversary.mode = lsn::failure_mode::greedy_adversary;
    adversary.adversary_budget = 1;
    adversary.adversary_eval_stride = 12;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            traffic::generate_adversary_timeline(context.geometry(), adversary,
                                                 bench_demand(), options)
                .final_n_failed());
    }
}
BENCHMARK(bm_adversary)->Unit(benchmark::kMillisecond);

void bm_route_round(benchmark::State& state)
{
    // One round-one routing pass of the traffic engine at the epoch: the
    // router built over the unfailed network_day snapshot (3262 nodes in 787
    // zero-latency components), weighed by latency alone, then from each of
    // the first 11 gateways one query bounded to the gateways after it,
    // with their node paths.
    const auto& snap = network_day_snapshots()[0];
    std::vector<int> targets;
    for (auto _ : state) {
        lsn::router routes(snap);
        std::size_t hops = 0;
        for (int a = 0; a + 1 < snap.n_ground; ++a) {
            targets.clear();
            for (int b = a + 1; b < snap.n_ground; ++b) targets.push_back(snap.ground_node(b));
            routes.route(snap.ground_node(a), targets);
            for (const int t : targets) hops += routes.path_to(t).size();
        }
        benchmark::DoNotOptimize(hops);
    }
}
BENCHMARK(bm_route_round)->Unit(benchmark::kMicrosecond);

void bm_lanczos(benchmark::State& state)
{
    // λ₂ of the network_day constellation: the greedy SS design (3250
    // satellites, 130 planes) under its range-gated snapshot at the epoch,
    // unfailed — the connected solve the percolation engine pays on every
    // baseline step (λ₂ ≈ 5.8e-4, ~230 Lanczos steps to the default
    // residual tolerance). Disconnected steps never reach the solver. The
    // design and the alive graph are built once outside the loop, so this
    // tracks the eigensolver alone.
    static const spectral::alive_graph graph =
        spectral::alive_adjacency(network_day_snapshots()[0]);
    int iterations = 0;
    for (auto _ : state) {
        const auto solve = spectral::algebraic_connectivity(graph);
        iterations = solve.iterations;
        benchmark::DoNotOptimize(solve.lambda2);
    }
    state.counters["nodes"] = benchmark::Counter(graph.n_alive());
    state.counters["iterations"] = benchmark::Counter(iterations);
}
BENCHMARK(bm_lanczos)->Unit(benchmark::kMillisecond);

void bm_percolation(benchmark::State& state)
{
    // Union-find + susceptibility + clustering over the network_day
    // snapshot at the epoch under its two-plane attack, λ₂ off: the
    // percolation engine's per-step structural pass minus the eigensolve
    // (tracked by bm_lanczos).
    const auto& context = network_day_context();
    lsn::failure_scenario attack;
    attack.mode = lsn::failure_mode::plane_attack;
    attack.planes_attacked = 2;
    attack.seed = 1;
    const auto failed = lsn::sample_failures(context.builder().topology(), attack);
    const auto snap = context.geometry().snapshot(0, failed);
    spectral::percolation_options opts;
    opts.compute_lambda2 = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            spectral::analyze_percolation(snap, failed, opts).susceptibility);
    }
}
BENCHMARK(bm_percolation)->Unit(benchmark::kMicrosecond);

/// network_day's serving knobs and its 1M-session grid, sampled once (the
/// per-campaign cost, outside every timed loop).
const serve::serving_options& network_day_serving()
{
    static const serve::serving_options opts = [] {
        serve::serving_options o;
        o.n_sessions = 1000000;
        o.seed = 1;
        return o;
    }();
    return opts;
}

const serve::session_grid& network_day_sessions()
{
    static const serve::session_grid grid =
        serve::sample_session_grid(bench_population(), network_day_serving());
    return grid;
}

void bm_serve_discover(benchmark::State& state)
{
    // The mask-independent half of a serving step: the activity and
    // windowed visibility pass over network_day's 1M-session grid on the
    // SS design at the epoch. A campaign runs it once per step for every
    // scenario row.
    const auto& context = network_day_context();
    const auto& grid = network_day_sessions();
    std::size_t candidates = 0;
    for (auto _ : state) {
        const auto table = serve::discover_visibility(grid, context.positions()[0],
                                                      context.epoch(), network_day_serving());
        candidates = table.entries.size();
        benchmark::DoNotOptimize(candidates);
    }
    state.counters["cells"] = benchmark::Counter(static_cast<double>(grid.cells.size()));
    state.counters["candidates"] = benchmark::Counter(static_cast<double>(candidates));
}
BENCHMARK(bm_serve_discover)->Unit(benchmark::kMillisecond);

void bm_session_assign(benchmark::State& state)
{
    // One serving step at production session scale: network_day's
    // 1M-session grid packed onto the SS design's beams at the epoch,
    // discovery included (the positions-taking `assign_beams`). The gate
    // the serving engine lives under: one step's assignment must sustain
    // >= 1M sessions with memory O(populated cells), so the measured
    // quantity is ns per (session x step).
    const auto& context = network_day_context();
    const auto& grid = network_day_sessions();
    for (auto _ : state) {
        benchmark::DoNotOptimize(serve::assign_beams(grid, context.positions()[0], {},
                                                     context.epoch(),
                                                     network_day_serving())
                                     .delivered_gbps);
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
