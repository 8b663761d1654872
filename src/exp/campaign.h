// Declarative experiment campaigns: one evaluation context, a scenario
// grid, pluggable metric engines (ROADMAP "scenario batching"; paper §2.1,
// §5 — the joint sustainability/survivability study across many failure
// scenarios).
//
// An `experiment_plan` declares *what* to evaluate: a list of named
// `failure_scenario` templates, an optional seed grid (the cartesian
// product replicates every template once per seed), and the metric engines
// to judge every scenario with. `run_campaign` evaluates the full
// (scenario, engine) grid against one shared `evaluation_context` — one
// propagation pass, one failure timeline per distinct `lsn::canonical` form —
// as one task graph on the process thread pool: each distinct cell is a
// task queued as soon as its timeline exists (longest first), so cells run
// while the calling thread generates the greedy adversary; once they have
// all finished, each engine that batches rows (`batches_rows`) judges all
// its distinct timelines in one `evaluate_rows` call. Results land in
// per-cell slots, so the result is bit-identical for any `SSPLANE_THREADS`
// value and identical to calling each engine's sweep entry point scenario
// by scenario.
#ifndef SSPLANE_EXP_CAMPAIGN_H
#define SSPLANE_EXP_CAMPAIGN_H

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exp/metric_engine.h"
#include "util/expects.h"

namespace ssplane::exp {

/// One named scenario template of a plan.
struct scenario_spec {
    std::string name;
    lsn::failure_scenario scenario;
};

/// Declarative campaign: scenario templates x seed grid x metric engines.
struct experiment_plan {
    std::vector<scenario_spec> scenarios;
    /// Seed grid: when non-empty, every template is replicated once per
    /// seed with `scenario.seed` overridden and "#<seed>" appended to the
    /// name. Empty = templates run as-is with their own seeds.
    std::vector<std::uint64_t> seeds;
    std::vector<std::shared_ptr<const metric_engine>> engines;
};

/// The resolved scenario grid of a plan (templates x seeds), in evaluation
/// order — exposed so callers and tests can inspect the expansion.
std::vector<scenario_spec> expand_scenarios(const experiment_plan& plan);

/// One row of the campaign table: the resolved scenario axes.
struct campaign_row {
    std::string name;
    lsn::failure_scenario scenario; ///< Seed applied.
    int n_failed = 0; ///< Satellites the scenario's final mask removes.
};

/// Uniform campaign output: scenario axes x named metric columns, plus the
/// engine-typed detail payload per cell.
struct campaign_result {
    std::vector<campaign_row> rows;        ///< Scenario-major evaluation order.
    std::vector<std::string> engine_names; ///< One per plan engine, in order.
    /// Flattened "<engine>.<column>" names over all engines, in engine
    /// order — the metric columns of `write_csv`.
    std::vector<std::string> columns;
    /// Flattened "<engine>.<column>" names over every engine's
    /// `step_columns()`, in engine order — the trace columns of
    /// `write_step_csv`. Empty when no engine reports per-step traces.
    std::vector<std::string> step_columns;
    int n_engines = 0;
    std::vector<engine_output> cells; ///< rows.size() x n_engines, row-major.
    /// The plan's engines, kept so per-step traces can be extracted from
    /// cells after the run (`write_step_csv`).
    std::vector<std::shared_ptr<const metric_engine>> engines;
    /// The context's sweep time grid, echoed into the step CSV.
    std::vector<double> step_offsets_s;
    /// Evaluation-context cache telemetry of THIS run: the delta of the
    /// context's cumulative `cache_stats()` across `run_campaign`, so a
    /// reused context reports only what this campaign did (step builds: the
    /// step count on a cold context, 0 on a warm one). Echoed into
    /// `write_csv` as the trailing `ctx.*` summary columns.
    cache_statistics cache;

    /// Index of the engine with this name — the robust way to address
    /// cells (engine order in the plan is not part of the API contract).
    /// Unknown names are a contract violation.
    int engine_index(std::string_view name) const;

    const engine_output& cell(int row, int engine) const
    {
        expects(row >= 0 && static_cast<std::size_t>(row) < rows.size(),
                "campaign row index out of range");
        expects(engine >= 0 && engine < n_engines,
                "campaign engine index out of range");
        return cells[static_cast<std::size_t>(row) *
                         static_cast<std::size_t>(n_engines) +
                     static_cast<std::size_t>(engine)];
    }

    /// Scalar lookup by flattened column name ("traffic.delivered_fraction").
    /// Unknown columns are a contract violation.
    double value(int row, std::string_view column) const;

    /// CSV table via `util/csv`: scenario axes (name, mode, knobs, seed,
    /// n_failed) followed by every flattened metric column, then the
    /// campaign-constant `ctx.*` cache-telemetry summary columns
    /// (timeline-cache hits/misses/hit rate, snapshot builds) repeated on
    /// every row so sliced exports keep their provenance.
    void write_csv(std::ostream& out) const;

    /// Per-step degradation-trajectory table: one line per (scenario,
    /// sweep step) with header `scenario,step,offset_s` followed by every
    /// `step_columns` trace column. Engines without per-step traces
    /// contribute no columns. A no-op (header only) when no engine reports
    /// traces.
    void write_step_csv(std::ostream& out) const;
};

/// Evaluate every (scenario, engine) cell of the plan against the shared
/// context. Validates every scenario (`lsn::validate`) before fanning out;
/// each engine checked its options when it was built. Bit-identical for any
/// `SSPLANE_THREADS`.
campaign_result run_campaign(const experiment_plan& plan,
                             const evaluation_context& context);

} // namespace ssplane::exp

#endif // SSPLANE_EXP_CAMPAIGN_H
