#include "replay.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "serve/beam_assignment.h"
#include "spectral/percolation.h"
#include "tempo/bulk_router.h"
#include "tempo/time_expanded_graph.h"
#include "timing.h"
#include "traffic/flow_assignment.h"
#include "traffic/traffic_matrix.h"
#include "util/parallel.h"

namespace bench {

namespace {

const char* const engine_names[] = {"survivability", "traffic", "bulk",
                                    "bulk_per_step", "percolation", "serving"};

double per(double total, double count) { return count > 0.0 ? total / count : 0.0; }

double counter(const std::vector<obs::metric_sample>& counters, const std::string& name)
{
    for (const auto& sample : counters)
        if (sample.name == name) return sample.value;
    return 0.0;
}

/// Runs `fn` and adds its wall time to `total`.
template <class F>
auto timed(double& total, F&& fn)
{
    const auto start = clock_type::now();
    auto result = fn();
    total += seconds_since(start);
    return result;
}

} // namespace

const std::vector<metric>& per_layer_metrics()
{
    static const std::vector<metric> metrics = [] {
        std::vector<metric> m{{"exp.prefetch_s", 0.0, "s"}};
        for (const char* engine : engine_names)
            m.push_back({std::string("exp.cell_s.") + engine, 0.0, "s"});
        const std::vector<metric> rest{
            {"exp.cell_max_s", 0.0, "s"},
            {"exp.cells_unique", 0.0, "count"},
            {"exp.campaign_traced_s", 0.0, "s"},
            {"exp.tracing_overhead_frac", 0.0, "fraction"},
            {"traffic.adversary_s", 0.0, "s"},
            {"traffic.assign_s", 0.0, "s"},
            {"traffic.assign_ms_per_call", 0.0, "ms"},
            {"traffic.assign_calls", 0.0, "count"},
            {"traffic.assign_rounds", 0.0, "count"},
            {"lsn.dijkstra_runs", 0.0, "count"},
            {"spectral.analyze_s", 0.0, "s"},
            {"spectral.analyze_ms_per_call", 0.0, "ms"},
            {"spectral.lanczos_solves", 0.0, "count"},
            {"spectral.lanczos_iters", 0.0, "count"},
            {"spectral.useful_solve_frac", 0.0, "fraction"},
            {"spectral.capped_solve_frac", 0.0, "fraction"},
            {"lsn.snapshot_s", 0.0, "s"},
            {"lsn.snapshot_ms_per_call", 0.0, "ms"},
            {"lsn.snapshot_builds", 0.0, "count"},
            {"lsn.snapshot_builds_per_distinct_step", 0.0, "ratio"},
            {"lsn.propagate_s", 0.0, "s"},
            {"serve.assign_s", 0.0, "s"},
            {"serve.assign_ms_per_call", 0.0, "ms"},
            {"serve.sessions_active", 0.0, "count"},
            {"serve.ns_per_session_step", 0.0, "ns"},
            {"serve.sample_s", 0.0, "s"},
            {"tempo.graph_build_s", 0.0, "s"},
            {"tempo.route_s", 0.0, "s"},
            {"tempo.graph_arcs", 0.0, "count"},
            {"tempo.augmentations", 0.0, "count"},
            {"core.design_s", 0.0, "s"},
            {"radiation.fluence_s", 0.0, "s"},
            {"pool.busy_frac", 0.0, "fraction"},
            {"pool.parallel_regions", 0.0, "count"},
            {"pool.chunks", 0.0, "count"},
            {"pool.threads", 0.0, "count"},
        };
        m.insert(m.end(), rest.begin(), rest.end());
        return m;
    }();
    return metrics;
}

layer_replay replay_layers(const workload_setup& setup)
{
    layer_replay replay;
    auto& v = replay.values;
    // Every metric starts at 0, the value of a layer the workload does not
    // run; per_layer_report refuses any other key.
    for (const auto& m : per_layer_metrics()) v[m.name] = 0.0;
    const auto& ctx = *setup.context;
    const auto& builder = ctx.builder();
    const auto offsets = ctx.offsets();
    const auto& positions = ctx.positions();
    const int n_steps = ctx.n_steps();
    const auto expanded = exp::expand_scenarios(setup.plan);

    // --- exp: the serial prefetch on the cold context, on the full pool. A
    // greedy-adversary lookup is one generate_adversary_timeline call, so
    // its share is the traffic layer's adversary cost.
    std::vector<const lsn::failure_timeline*> timelines;
    for (const auto& spec : expanded) {
        double lookup_s = 0.0;
        const auto* timeline =
            timed(lookup_s, [&] { return &ctx.timeline(spec.scenario); });
        v["exp.prefetch_s"] += lookup_s;
        if (spec.scenario.mode == lsn::failure_mode::greedy_adversary)
            v["traffic.adversary_s"] += lookup_s;
        if (std::find(timelines.begin(), timelines.end(), timeline) == timelines.end())
            timelines.push_back(timeline);
    }
    timed(v["lsn.propagate_s"], [&] { return builder.positions_at_offsets(offsets); });

    // --- Kernel replays on one thread, one call at a time: each engine's
    // evaluate over the distinct timelines, then the layer kernels.
    const unsigned pool = thread_count();
    set_thread_count(1);
    std::map<std::string, const exp::metric_engine*> engines;
    for (const auto& engine : setup.plan.engines) {
        engines[engine->name()] = engine.get();
        double& total = v["exp.cell_s." + engine->name()];
        for (const auto* timeline : timelines) {
            double cell_s = 0.0;
            timed(cell_s, [&] { return engine->evaluate(ctx, *timeline); });
            total += cell_s;
            v["exp.cell_max_s"] = std::max(v["exp.cell_max_s"], cell_s);
        }
    }

    // --- lsn: every distinct (timeline, step) snapshot, kept as the input
    // of the kernel replays below.
    std::vector<std::vector<lsn::network_snapshot>> snapshots(timelines.size());
    for (std::size_t u = 0; u < timelines.size(); ++u)
        for (int i = 0; i < n_steps; ++i)
            snapshots[u].push_back(timed(v["lsn.snapshot_s"], [&] {
                return builder.snapshot_from_positions(
                    positions[static_cast<std::size_t>(i)], timelines[u]->step(i));
            }));
    const double distinct_steps = static_cast<double>(timelines.size()) * n_steps;

    double assign_calls = 0.0, analyses = 0.0, solves = 0.0, useful = 0.0, capped = 0.0;
    double beam_calls = 0.0, sessions = 0.0;
    for (std::size_t u = 0; u < timelines.size(); ++u) {
        for (int i = 0; i < n_steps; ++i) {
            const auto& snap = snapshots[u][static_cast<std::size_t>(i)];
            const auto mask = timelines[u]->step(i);
            const auto t = ctx.epoch().plus_seconds(offsets[static_cast<std::size_t>(i)]);
            if (engines.count("traffic")) {
                const auto matrix = traffic::build_traffic_matrix(
                    setup.demand, builder.stations(), t, setup.traffic_opts.matrix);
                timed(v["traffic.assign_s"], [&] {
                    return traffic::assign_flows(snap, matrix,
                                                 setup.traffic_opts.capacity);
                });
                ++assign_calls;
            }
            if (engines.count("percolation")) {
                const auto m = timed(v["spectral.analyze_s"], [&] {
                    return spectral::analyze_percolation(snap, mask,
                                                         setup.percolation_opts.metrics);
                });
                ++analyses;
                if (setup.percolation_opts.metrics.compute_lambda2 && m.n_alive > 0) {
                    ++solves;
                    useful += m.n_components == 1;
                    capped += m.lanczos_iterations >=
                              setup.percolation_opts.metrics.lanczos.max_iterations;
                }
            }
            if (engines.count("serving")) {
                const auto& grid =
                    static_cast<const exp::serving_engine*>(engines["serving"])->grid();
                const auto beams = timed(v["serve.assign_s"], [&] {
                    return serve::assign_beams(grid, positions[static_cast<std::size_t>(i)],
                                               mask, t, setup.serving_opts);
                });
                ++beam_calls;
                sessions += static_cast<double>(beams.sessions_active);
            }
        }
        if (engines.count("bulk")) {
            auto graph = timed(v["tempo.graph_build_s"], [&] {
                return tempo::build_time_expanded_graph_timeline(
                    builder, offsets, positions, *timelines[u], setup.bulk_opts);
            });
            timed(v["tempo.route_s"], [&] {
                return tempo::route_bulk_transfers(graph, setup.bulk_requests);
            });
        }
    }
    set_thread_count(pool);

    v["traffic.assign_ms_per_call"] = 1.0e3 * per(v["traffic.assign_s"], assign_calls);
    v["spectral.analyze_ms_per_call"] = 1.0e3 * per(v["spectral.analyze_s"], analyses);
    v["spectral.useful_solve_frac"] = per(useful, solves);
    v["spectral.capped_solve_frac"] = per(capped, solves);
    v["lsn.snapshot_ms_per_call"] = 1.0e3 * per(v["lsn.snapshot_s"], distinct_steps);
    v["serve.assign_ms_per_call"] = 1.0e3 * per(v["serve.assign_s"], beam_calls);
    v["serve.ns_per_session_step"] = 1.0e9 * per(v["serve.assign_s"], sessions);
    v["serve.sample_s"] = setup.phases.grid_s;
    v["core.design_s"] = setup.phases.design_s;
    v["radiation.fluence_s"] = setup.phases.fluence_s;
    replay.distinct_steps = distinct_steps;
    return replay;
}

std::vector<metric> per_layer_report(layer_replay replay, const campaign_timing& timing,
                                     const std::vector<obs::metric_sample>& counters)
{
    auto& v = replay.values;
    v["exp.cells_unique"] = counter(counters, "exp.campaign.cells_unique");
    v["exp.campaign_traced_s"] = timing.traced_s;
    v["exp.tracing_overhead_frac"] = per(timing.traced_s, timing.untraced_s) - 1.0;
    v["traffic.assign_calls"] = counter(counters, "traffic.assign.calls");
    v["traffic.assign_rounds"] = counter(counters, "traffic.assign.rounds");
    v["lsn.dijkstra_runs"] = counter(counters, "lsn.dijkstra.runs");
    v["spectral.lanczos_solves"] = counter(counters, "spectral.lanczos.solves");
    v["spectral.lanczos_iters"] = counter(counters, "spectral.lanczos.iterations");
    v["lsn.snapshot_builds"] = counter(counters, "lsn.snapshot.builds");
    v["lsn.snapshot_builds_per_distinct_step"] =
        per(v["lsn.snapshot_builds"], replay.distinct_steps);
    v["serve.sessions_active"] = counter(counters, "serve.assign.sessions_active");
    v["tempo.graph_arcs"] = counter(counters, "tempo.graph.arcs");
    v["tempo.augmentations"] = counter(counters, "tempo.bulk.augmentations");
    v["pool.busy_frac"] =
        per(timing.cpu_s, timing.untraced_s * static_cast<double>(timing.pool_threads));
    v["pool.parallel_regions"] = counter(counters, "pool.parallel_regions");
    v["pool.chunks"] = counter(counters, "pool.chunks");
    v["pool.threads"] = timing.pool_threads;

    std::vector<metric> out = per_layer_metrics();
    for (auto& m : out) m.value = v.at(m.name);
    if (v.size() != out.size())
        for (const auto& [name, value] : v)
            if (std::none_of(out.begin(), out.end(),
                             [&](const metric& m) { return m.name == name; }))
                throw std::logic_error("per-layer value '" + name +
                                       "' is not a per-layer metric");
    return out;
}

} // namespace bench
