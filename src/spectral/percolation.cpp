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

/// Global clustering coefficient: closed / connected triplets. Neighbor
/// lists must be sorted (binary-search closure test); each triangle is
/// counted once per center, matching the factor 3 of the textbook formula.
double global_clustering(const std::vector<std::vector<int>>& adjacency)
{
    std::int64_t closed = 0;
    std::int64_t triplets = 0;
    for (const auto& neighbors : adjacency) {
        const std::int64_t degree = static_cast<std::int64_t>(neighbors.size());
        triplets += degree * (degree - 1) / 2;
        for (std::size_t a = 0; a < neighbors.size(); ++a)
            for (std::size_t b = a + 1; b < neighbors.size(); ++b) {
                const auto& via = adjacency[static_cast<std::size_t>(neighbors[a])];
                if (std::binary_search(via.begin(), via.end(), neighbors[b]))
                    ++closed;
            }
    }
    return triplets == 0 ? 0.0 : static_cast<double>(closed) / static_cast<double>(triplets);
}

/// What `analyze_adjacency` reads of one step, flattened: per satellite,
/// -1 when failed, else its degree followed by its sorted neighbours. Two
/// steps with equal keys get bit-identical metrics.
std::vector<int> graph_key(const std::vector<std::vector<int>>& adjacency,
                           std::span<const std::uint8_t> failed)
{
    std::vector<int> key;
    for (std::size_t s = 0; s < adjacency.size(); ++s) {
        if (!failed.empty() && failed[s] != 0) {
            key.push_back(-1);
            continue;
        }
        key.push_back(static_cast<int>(adjacency[s].size()));
        key.insert(key.end(), adjacency[s].begin(), adjacency[s].end());
    }
    return key;
}

/// The adjacency lists a `graph_key` was built from.
std::vector<std::vector<int>> adjacency_of(const std::vector<int>& key,
                                           std::size_t n_satellites)
{
    std::vector<std::vector<int>> adjacency(n_satellites);
    std::size_t at = 0;
    for (auto& row : adjacency) {
        const int degree = key[at++];
        if (degree < 0) continue;
        row.assign(key.begin() + static_cast<std::ptrdiff_t>(at),
                   key.begin() + static_cast<std::ptrdiff_t>(at) + degree);
        at += static_cast<std::size_t>(degree);
    }
    return adjacency;
}

/// FNV-1a over the key's values: a cheap first test before the full
/// compare.
std::uint64_t key_hash(const std::vector<int>& key)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const int v : key) {
        h ^= static_cast<std::uint32_t>(v);
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

void validate(const percolation_options& options) { validate(options.lanczos); }

percolation_metrics analyze_adjacency(const std::vector<std::vector<int>>& adjacency,
                                      std::span<const std::uint8_t> failed,
                                      const percolation_options& options)
{
    OBS_SPAN("spectral.percolate");
    validate(options);
    const int n = static_cast<int>(adjacency.size());
    expects(failed.empty() || static_cast<int>(failed.size()) == n,
            "failure mask must be empty or have one flag per node");

    percolation_metrics metrics;

    // Compact to the alive subgraph: dead rows drop out entirely, so the
    // spectral and component structure below is that of the survivors.
    std::vector<int> alive_index(static_cast<std::size_t>(n), -1);
    int n_alive = 0;
    for (int i = 0; i < n; ++i) {
        if (!failed.empty() && failed[static_cast<std::size_t>(i)] != 0) {
            expects(adjacency[static_cast<std::size_t>(i)].empty(),
                    "failed nodes must have no incident edges");
            continue;
        }
        alive_index[static_cast<std::size_t>(i)] = n_alive++;
    }
    metrics.n_alive = n_alive;
    if (n_alive == 0) return metrics;

    std::vector<std::vector<int>> alive(static_cast<std::size_t>(n_alive));
    for (int i = 0; i < n; ++i) {
        const int a = alive_index[static_cast<std::size_t>(i)];
        if (a < 0) continue;
        auto& row = alive[static_cast<std::size_t>(a)];
        row.reserve(adjacency[static_cast<std::size_t>(i)].size());
        for (const int j : adjacency[static_cast<std::size_t>(i)]) {
            const int b = alive_index[static_cast<std::size_t>(j)];
            expects(b >= 0, "alive nodes must not link to failed nodes");
            row.push_back(b); // relabeling is monotone, so rows stay sorted
        }
    }

    union_find components(n_alive);
    for (int a = 0; a < n_alive; ++a)
        for (const int b : alive[static_cast<std::size_t>(a)])
            if (a < b) components.unite(a, b);
    OBS_COUNT_N("spectral.unionfind.unions", components.unions());

    std::vector<int> cluster_sizes;
    for (int a = 0; a < n_alive; ++a)
        if (components.find(a) == a) cluster_sizes.push_back(components.component_size(a));
    metrics.n_components = static_cast<int>(cluster_sizes.size());

    const int giant =
        *std::max_element(cluster_sizes.begin(), cluster_sizes.end());
    metrics.giant_component_fraction =
        static_cast<double>(giant) / static_cast<double>(n);
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
    metrics.susceptibility = chi / static_cast<double>(n);

    if (options.compute_clustering)
        metrics.clustering_coefficient = global_clustering(alive);

    if (options.compute_lambda2) {
        if (metrics.n_components > 1) {
            // Union-find has proved the survivors disconnected: λ₂ = 0
            // exactly, so no Laplacian and no solve.
            OBS_COUNT("spectral.lanczos.skipped_disconnected");
        } else {
            const lanczos_result solve =
                algebraic_connectivity(laplacian_from_adjacency(alive), options.lanczos);
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
    return analyze_adjacency(alive_adjacency(topology, failed), failed, options);
}

percolation_metrics analyze_percolation(const lsn::network_snapshot& snapshot,
                                        std::span<const std::uint8_t> failed,
                                        const percolation_options& options)
{
    return analyze_adjacency(alive_adjacency(snapshot, failed), failed, options);
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

double attack_resilience(const masking_threshold_result& result)
{
    if (result.steps.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& step : result.steps) sum += step.mean_giant_alive_fraction;
    return sum / static_cast<double>(result.steps.size());
}

// --- Timeline sweep ----------------------------------------------------------

percolation_sweep_result run_percolation_sweep_timeline(
    const lsn::sweep_geometry& geometry, const lsn::failure_timeline& timeline,
    const percolation_options& options)
{
    validate(options);
    geometry.validate(timeline);

    // Key every step on what the analysis reads (mask, alive adjacency),
    // then analyze each distinct key once: a repeated graph copies its
    // first step's metrics, which are bit-identical because the Lanczos
    // start vector depends on `options.lanczos.seed` alone. Per-step and
    // per-key result slots plus a serial dedup in step order keep any
    // SSPLANE_THREADS value bit-identical.
    const auto n_steps = static_cast<std::size_t>(geometry.n_steps());
    const auto keys = parallel_map<std::vector<int>>(n_steps, [&](std::size_t i) {
        const int step = static_cast<int>(i);
        const std::span<const std::uint8_t> mask = timeline.step(step);
        return graph_key(alive_adjacency(geometry.snapshot(step, mask), mask), mask);
    });
    std::vector<std::uint64_t> hashes;
    std::vector<std::size_t> distinct; // first step of each distinct key
    std::vector<std::size_t> slot(n_steps);
    for (std::size_t i = 0; i < n_steps; ++i) {
        const std::uint64_t hash = key_hash(keys[i]);
        std::size_t d = 0;
        while (d < distinct.size() &&
               !(hashes[d] == hash && keys[distinct[d]] == keys[i]))
            ++d;
        if (d == distinct.size()) {
            hashes.push_back(hash);
            distinct.push_back(i);
        }
        slot[i] = d;
    }
    OBS_COUNT_N("spectral.percolate.reused", n_steps - distinct.size());
    const auto n_satellites = static_cast<std::size_t>(geometry.builder().n_satellites());
    const auto analyzed =
        parallel_map<percolation_metrics>(distinct.size(), [&](std::size_t d) {
            const std::size_t i = distinct[d];
            return analyze_adjacency(adjacency_of(keys[i], n_satellites),
                                     timeline.step(static_cast<int>(i)), options);
        });
    std::vector<percolation_metrics> per_step;
    per_step.reserve(n_steps);
    for (const std::size_t d : slot) per_step.push_back(analyzed[d]);

    percolation_sweep_result result;
    if (n_steps == 0) return result;
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
