#include "spectral/percolation.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/union_find.h"

namespace ssplane::spectral {

namespace {

// Sub-stream purpose of `rng::split(seed, purpose, step)` for the masking
// detector's per-(fraction, draw) scenario seeds. Tree-wide unique
// (detlint split-purpose-collision): lsn holds 1 and 2, Lanczos holds 3.
constexpr std::uint64_t purpose_masking_draw = 4;

/// Global clustering coefficient: closed / connected triplets. Rows are
/// sorted (binary-search closure test); each triangle is counted once per
/// center, matching the factor 3 of the textbook formula.
double global_clustering(const alive_graph& graph)
{
    std::int64_t closed = 0;
    std::int64_t triplets = 0;
    for (int v = 0; v < graph.n_alive(); ++v) {
        const std::span<const int> neighbors = graph.row(v);
        const std::int64_t degree = static_cast<std::int64_t>(neighbors.size());
        triplets += degree * (degree - 1) / 2;
        for (std::size_t a = 0; a < neighbors.size(); ++a)
            for (std::size_t b = a + 1; b < neighbors.size(); ++b) {
                const std::span<const int> via = graph.row(neighbors[a]);
                if (std::binary_search(via.begin(), via.end(), neighbors[b]))
                    ++closed;
            }
    }
    return triplets == 0 ? 0.0 : static_cast<double>(closed) / static_cast<double>(triplets);
}

/// FNV-1a over the graph's CSR arrays: a cheap first test before the full
/// compare.
std::uint64_t graph_hash(const alive_graph& graph)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const auto* part : {&graph.row_begin, &graph.neighbors})
        for (const int v : *part) {
            h ^= static_cast<std::uint32_t>(v);
            h *= 1099511628211ULL;
        }
    return h;
}

} // namespace

void validate(const percolation_options& options) { validate(options.lanczos); }

percolation_metrics analyze_adjacency(const alive_graph& graph,
                                      const percolation_options& options)
{
    OBS_SPAN("spectral.percolate");
    validate(options);
    percolation_metrics metrics;
    const int n_alive = graph.n_alive();
    metrics.n_alive = n_alive;
    if (n_alive == 0) return metrics;

    union_find components(n_alive);
    for (int a = 0; a < n_alive; ++a)
        for (const int b : graph.row(a))
            if (a < b) components.unite(a, b);
    OBS_COUNT_N("spectral.unionfind.unions", components.unions());

    std::vector<int> cluster_sizes;
    for (int a = 0; a < n_alive; ++a)
        if (components.find(a) == a) cluster_sizes.push_back(components.component_size(a));
    metrics.n_components = static_cast<int>(cluster_sizes.size());

    const int giant =
        *std::max_element(cluster_sizes.begin(), cluster_sizes.end());
    const auto n_satellites = static_cast<double>(graph.n_satellites);
    metrics.giant_component_fraction = static_cast<double>(giant) / n_satellites;
    metrics.giant_alive_fraction =
        static_cast<double>(giant) / static_cast<double>(n_alive);

    // χ excludes one instance of the giant cluster; everything else —
    // ties for the maximum included — is a finite cluster.
    bool giant_excluded = false;
    double chi = 0.0;
    for (const int size : cluster_sizes) {
        if (!giant_excluded && size == giant) {
            giant_excluded = true;
            continue;
        }
        chi += static_cast<double>(size) * static_cast<double>(size);
    }
    metrics.susceptibility = chi / n_satellites;

    if (options.compute_clustering)
        metrics.clustering_coefficient = global_clustering(graph);

    if (options.compute_lambda2) {
        if (metrics.n_components > 1) {
            // Union-find has proved the survivors disconnected: λ₂ = 0
            // exactly, so no solve.
            OBS_COUNT("spectral.lanczos.skipped_disconnected");
        } else {
            const lanczos_result solve = algebraic_connectivity(graph, options.lanczos);
            metrics.lambda2 = solve.lambda2;
            metrics.lanczos_iterations = solve.iterations;
            metrics.lambda2_converged = solve.converged;
        }
    }
    return metrics;
}

percolation_metrics analyze_percolation(const lsn::lsn_topology& topology,
                                        std::span<const std::uint8_t> failed,
                                        const percolation_options& options)
{
    return analyze_adjacency(alive_adjacency(topology, failed), options);
}

percolation_metrics analyze_percolation(const lsn::network_snapshot& snapshot,
                                        std::span<const std::uint8_t> failed,
                                        const percolation_options& options)
{
    return analyze_adjacency(alive_adjacency(snapshot, failed), options);
}

// --- Masking-threshold detector --------------------------------------------

void validate(const masking_threshold_options& options)
{
    expects(options.mode == lsn::failure_mode::random_loss ||
                options.mode == lsn::failure_mode::plane_attack,
            "masking threshold needs a static escalatable mode "
            "(random_loss or plane_attack)");
    expects(std::isfinite(options.fraction_step) && options.fraction_step > 0.0 &&
                options.fraction_step <= 1.0,
            "masking fraction_step must be in (0, 1]");
    expects(std::isfinite(options.max_fraction) && options.max_fraction > 0.0 &&
                options.max_fraction <= 1.0,
            "masking max_fraction must be in (0, 1]");
    expects(options.n_seeds >= 1, "masking n_seeds must be at least 1");
    expects(std::isfinite(options.gcc_collapse_ratio) &&
                options.gcc_collapse_ratio > 0.0 && options.gcc_collapse_ratio <= 1.0,
            "masking gcc_collapse_ratio must be in (0, 1]");
    expects(std::isfinite(options.lambda2_epsilon) && options.lambda2_epsilon >= 0.0,
            "masking lambda2_epsilon must be finite and non-negative");
    validate(options.metrics);
}

masking_threshold_result find_masking_threshold(
    const lsn::lsn_topology& topology, const masking_threshold_options& options)
{
    validate(options);
    masking_threshold_result result;
    const int planes = lsn::plane_count(topology);

    const auto collapsed = [&](const masking_threshold_step& step) {
        if (step.mean_giant_alive_fraction < options.gcc_collapse_ratio) return true;
        return options.metrics.compute_lambda2 &&
               step.mean_lambda2 < options.lambda2_epsilon;
    };

    // Fraction 0 baseline: one analysis (the draws all agree on "nothing
    // failed"). A baseline that already trips the predicate — a
    // disconnected design — reports threshold 0: there is no redundancy
    // to mask anything.
    {
        const percolation_metrics m =
            analyze_percolation(topology, {}, options.metrics);
        masking_threshold_step step;
        step.mean_giant_component_fraction = m.giant_component_fraction;
        step.mean_giant_alive_fraction = m.giant_alive_fraction;
        step.mean_lambda2 = m.lambda2;
        step.mean_susceptibility = m.susceptibility;
        step.mean_clustering = m.clustering_coefficient;
        result.steps.push_back(step);
        if (collapsed(step)) {
            result.threshold_fraction = 0.0;
            if (options.stop_at_collapse) return result;
        }
    }

    for (int index = 1;; ++index) {
        const double fraction = static_cast<double>(index) * options.fraction_step;
        if (fraction > options.max_fraction + 1.0e-12) break;

        masking_threshold_step step;
        step.fraction = fraction;
        for (int draw = 0; draw < options.n_seeds; ++draw) {
            lsn::failure_scenario scenario;
            scenario.mode = options.mode;
            if (options.mode == lsn::failure_mode::random_loss) {
                scenario.loss_fraction = fraction;
            } else {
                scenario.planes_attacked = static_cast<int>(std::min<long long>(
                    std::llround(fraction * static_cast<double>(planes)), planes));
            }
            scenario.seed =
                rng::split(options.seed, purpose_masking_draw,
                           static_cast<std::uint64_t>(index) *
                                   static_cast<std::uint64_t>(options.n_seeds) +
                               static_cast<std::uint64_t>(draw))
                    .next_u64();
            const std::vector<std::uint8_t> mask =
                lsn::sample_failures(topology, scenario);
            const percolation_metrics m =
                analyze_percolation(topology, mask, options.metrics);
            step.mean_giant_component_fraction += m.giant_component_fraction;
            step.mean_giant_alive_fraction += m.giant_alive_fraction;
            step.mean_lambda2 += m.lambda2;
            step.mean_susceptibility += m.susceptibility;
            step.mean_clustering += m.clustering_coefficient;
        }
        const double inv = 1.0 / static_cast<double>(options.n_seeds);
        step.mean_giant_component_fraction *= inv;
        step.mean_giant_alive_fraction *= inv;
        step.mean_lambda2 *= inv;
        step.mean_susceptibility *= inv;
        step.mean_clustering *= inv;
        result.steps.push_back(step);

        if (result.threshold_fraction < 0.0 && collapsed(step)) {
            result.threshold_fraction = fraction;
            if (options.stop_at_collapse) break;
        }
    }
    return result;
}

// --- Timeline sweep ----------------------------------------------------------

percolation_sweep_result run_percolation_sweep_timeline(
    const lsn::sweep_geometry& geometry, const lsn::failure_timeline& timeline,
    const percolation_options& options)
{
    validate(options);
    geometry.validate(timeline);

    // Key every step on the graph the analysis reads, then analyze each
    // distinct graph once: a repeated graph copies its first step's
    // metrics, which are bit-identical because the Lanczos start vector
    // depends on `options.lanczos.seed` alone. Per-step and per-graph
    // result slots plus a serial dedup in step order keep any
    // SSPLANE_THREADS value bit-identical.
    const auto n_steps = static_cast<std::size_t>(geometry.n_steps());
    const auto graphs = parallel_map<alive_graph>(n_steps, [&](std::size_t i) {
        const int step = static_cast<int>(i);
        const std::span<const std::uint8_t> mask = timeline.step(step);
        return alive_adjacency(geometry.snapshot(step, mask), mask);
    });
    std::vector<std::uint64_t> hashes;
    std::vector<std::size_t> distinct; // first step of each distinct graph
    std::vector<std::size_t> slot(n_steps);
    for (std::size_t i = 0; i < n_steps; ++i) {
        const std::uint64_t hash = graph_hash(graphs[i]);
        std::size_t d = 0;
        while (d < distinct.size() &&
               !(hashes[d] == hash && graphs[distinct[d]] == graphs[i]))
            ++d;
        if (d == distinct.size()) {
            hashes.push_back(hash);
            distinct.push_back(i);
        }
        slot[i] = d;
    }
    OBS_COUNT_N("spectral.percolate.reused", n_steps - distinct.size());
    const auto analyzed =
        parallel_map<percolation_metrics>(distinct.size(), [&](std::size_t d) {
            return analyze_adjacency(graphs[distinct[d]], options);
        });
    std::vector<percolation_metrics> per_step;
    per_step.reserve(n_steps);
    for (const std::size_t d : slot) per_step.push_back(analyzed[d]);

    percolation_sweep_result result;
    result.lambda2_min = per_step[0].lambda2;
    result.giant_fraction_min = per_step[0].giant_component_fraction;
    result.susceptibility_max = per_step[0].susceptibility;
    for (const percolation_metrics& m : per_step) {
        const std::uint8_t unconverged = m.lambda2_converged ? 0 : 1;
        result.step_lambda2.push_back(m.lambda2);
        result.step_giant_fraction.push_back(m.giant_component_fraction);
        result.step_susceptibility.push_back(m.susceptibility);
        result.step_clustering.push_back(m.clustering_coefficient);
        result.step_lambda2_unconverged.push_back(unconverged);
        result.lambda2_mean += m.lambda2;
        result.giant_fraction_mean += m.giant_component_fraction;
        result.susceptibility_mean += m.susceptibility;
        result.clustering_mean += m.clustering_coefficient;
        result.lambda2_min = std::min(result.lambda2_min, m.lambda2);
        result.giant_fraction_min =
            std::min(result.giant_fraction_min, m.giant_component_fraction);
        result.susceptibility_max = std::max(result.susceptibility_max, m.susceptibility);
        result.lambda2_unconverged_steps += unconverged;
    }
    const double inv = 1.0 / static_cast<double>(n_steps);
    result.lambda2_mean *= inv;
    result.giant_fraction_mean *= inv;
    result.susceptibility_mean *= inv;
    result.clustering_mean *= inv;
    return result;
}

} // namespace ssplane::spectral
