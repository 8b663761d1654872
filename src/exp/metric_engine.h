// Pluggable metric engines of the campaign API.
//
// A `metric_engine` judges one failure scenario against the shared
// `evaluation_context` and reports a fixed set of named scalar columns plus
// its full engine-typed result (for callers that need matrices, per-step
// traces or per-request slots rather than the scalar table). Each engine
// adapts its sweep's one timeline-taking entry point — survivability
// (`lsn::run_scenario_sweep_timeline`), delivered traffic
// (`traffic::run_traffic_sweep_timeline`), delay-tolerant bulk delivery
// (`tempo::run_bulk_sweep_timeline`), percolation and serving — onto this
// interface, feeding it the context's geometry and cached timeline, so a
// campaign cell is bit-identical to calling that entry point directly.
//
// Each engine declares its identity once, when it is built: the name and
// the scalar and step column lists go to `metric_engine`'s constructor, and
// the constructor checks the options it stores, so a degenerate engine
// throws at `make_shared` and never reaches a plan.
//
// An engine whose rows share per-step work declares it (`batches_rows`)
// and takes all of a campaign's rows at once through `evaluate_rows`:
// `run_campaign` hands it its distinct timelines in one call at top level,
// after every cell task has finished, so the batch's own parallel passes
// get the whole pool. The serving engine does this (one visibility pass per
// step for every row); every other engine's cells are pool tasks, one
// `evaluate` each.
#ifndef SSPLANE_EXP_METRIC_ENGINE_H
#define SSPLANE_EXP_METRIC_ENGINE_H

#include <memory>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "exp/evaluation_context.h"
#include "serve/serving_sweep.h"
#include "spectral/percolation.h"
#include "tempo/bulk_sweep.h"
#include "traffic/traffic_sweep.h"

namespace ssplane::exp {

/// One engine's output for one scenario cell.
struct engine_output {
    std::vector<double> values; ///< One per `metric_engine::columns()` entry.
    /// The engine-typed full result; read through the producing engine's
    /// static `detail()` accessor, which checks `detail_type` — asking an
    /// engine with a different result type for a cell is a
    /// `contract_violation`, not UB. Engines sharing a result type (the two
    /// `bulk_engine` variants) are indistinguishable here: address their
    /// cells via `campaign_result::engine_index(name)`, not hardcoded
    /// positions.
    std::shared_ptr<const void> detail;
    const std::type_info* detail_type = nullptr;
};

/// Interface every campaign metric engine implements. An engine fixes its
/// name, columns and options when it is built — a degenerate option is a
/// `contract_violation` from its constructor, so no campaign ever holds
/// one. Engines are immutable values: no engine holds a cache or a lock,
/// and `evaluate` is const, so one engine instance can serve many
/// (scenario, cell) evaluations concurrently.
class metric_engine {
public:
    virtual ~metric_engine() = default;
    metric_engine(const metric_engine&) = delete;
    metric_engine& operator=(const metric_engine&) = delete;

    /// Stable short name, used to prefix the campaign's flattened columns
    /// ("traffic.delivered_fraction").
    const std::string& name() const noexcept { return name_; }

    /// Names of the scalar columns `evaluate` fills, in order.
    const std::vector<std::string>& columns() const noexcept { return columns_; }

    /// Names of the per-step degradation traces `step_traces` extracts from
    /// a cell, in order — empty when the engine has no per-step view. Feeds
    /// `campaign_result::write_step_csv`.
    const std::vector<std::string>& step_columns() const noexcept
    {
        return step_columns_;
    }

    /// Judge one scenario (its pre-generated failure timeline) against the
    /// shared context. Static scenarios arrive as single-row timelines.
    /// Must be bit-identical for any `SSPLANE_THREADS` value.
    virtual engine_output evaluate(const evaluation_context& context,
                                   const lsn::failure_timeline& timeline) const = 0;

    /// True when `evaluate_rows` judges many rows in one pass that shares
    /// per-step work: a campaign then runs this engine as one row batch
    /// instead of one cell task per row.
    virtual bool batches_rows() const noexcept { return false; }

    /// Judge every timeline of `timelines` and return one output per
    /// timeline, in order, each bit-identical to `evaluate` on that timeline
    /// alone. The default calls `evaluate` once per timeline.
    virtual std::vector<engine_output> evaluate_rows(
        const evaluation_context& context,
        const std::vector<const lsn::failure_timeline*>& timelines) const
    {
        std::vector<engine_output> outputs;
        outputs.reserve(timelines.size());
        for (const auto* timeline : timelines)
            outputs.push_back(evaluate(context, *timeline));
        return outputs;
    }

    /// The per-step traces behind one of this engine's cells, one vector
    /// per `step_columns()` entry, each with one value per sweep step.
    virtual std::vector<std::vector<double>> step_traces(
        const engine_output& /*output*/) const
    {
        return {};
    }

protected:
    metric_engine(std::string name, std::vector<std::string> columns,
                  std::vector<std::string> step_columns = {})
        : name_(std::move(name)),
          columns_(std::move(columns)),
          step_columns_(std::move(step_columns))
    {
    }

private:
    std::string name_;
    std::vector<std::string> columns_;
    std::vector<std::string> step_columns_;
};

/// Survivability: giant component, all-pairs reachability and latency
/// (adapts `lsn::run_scenario_sweep_timeline`), plus the degradation-
/// trajectory scalars `time_to_partition_s` (first time the giant
/// component drops below half, -1 = never) and `recovery_headroom`.
class survivability_engine final : public metric_engine {
public:
    survivability_engine();

    engine_output evaluate(const evaluation_context& context,
                           const lsn::failure_timeline& timeline) const override;
    std::vector<std::vector<double>> step_traces(
        const engine_output& output) const override;

    /// The full sweep result behind a cell this engine produced.
    static const lsn::scenario_sweep_result& detail(const engine_output& output);
};

/// Delivered capacity against the diurnal gravity demand matrix (adapts
/// `traffic::run_traffic_sweep_timeline`), plus the degradation-trajectory
/// scalars `min_step_delivered_fraction` and `recovery_headroom`. The
/// demand model must outlive the engine.
class traffic_engine final : public metric_engine {
public:
    /// Validates the matrix and capacity options.
    explicit traffic_engine(const demand::demand_model& demand,
                            traffic::traffic_sweep_options options = {});

    engine_output evaluate(const evaluation_context& context,
                           const lsn::failure_timeline& timeline) const override;
    std::vector<std::vector<double>> step_traces(
        const engine_output& output) const override;

    static const traffic::traffic_sweep_result& detail(const engine_output& output);

private:
    const demand::demand_model* demand_;
    traffic::traffic_sweep_options options_;
};

/// Delay-tolerant bulk delivery over the time-expanded graph (adapts
/// `tempo::run_bulk_sweep_timeline`); with `per_step_baseline` the
/// per-epoch replication floor
/// (`run_bulk_sweep_per_step_baseline_timeline`) instead, so a plan can
/// carry both and report the store-and-forward gain. Named "bulk", or
/// "bulk_per_step" for the floor.
class bulk_engine final : public metric_engine {
public:
    /// Validates the routing options (`tempo::validate`).
    explicit bulk_engine(std::vector<tempo::bulk_transfer_request> requests,
                         tempo::bulk_route_options options = {},
                         bool per_step_baseline = false);

    engine_output evaluate(const evaluation_context& context,
                           const lsn::failure_timeline& timeline) const override;

    static const tempo::bulk_sweep_result& detail(const engine_output& output);

private:
    std::vector<tempo::bulk_transfer_request> requests_;
    tempo::bulk_route_options options_;
    bool per_step_baseline_;
};

/// Knobs of the percolation engine.
struct percolation_engine_options {
    /// Per-step analyzer knobs (λ₂ solver, clustering pass).
    spectral::percolation_options metrics{};
    /// Masking-detector knobs shared by the two threshold columns. Each
    /// column replaces `mode` with its own (random_loss, plane_attack) and
    /// `metrics` with the engine's `metrics` above, so neither value here is
    /// read or checked.
    spectral::masking_threshold_options masking{};
    /// The thresholds cost two full escalation sweeps in every cell; turn
    /// them on to fill the two threshold columns, which read -1 otherwise.
    bool compute_masking_thresholds = false;
};

/// Reject degenerate percolation-engine knobs with a `contract_violation`.
void validate(const percolation_engine_options& options);

/// Structural robustness: per-step λ₂ / giant-component / susceptibility /
/// clustering trajectories of the timeline (adapts
/// `spectral::run_percolation_sweep_timeline`) plus, when
/// `compute_masking_thresholds` is on, the escalating-attack masking
/// thresholds of the context's static ISL wiring, for random loss and plane
/// attack. `lambda2_unconverged_steps` (and the per-step
/// `lambda2_unconverged` trace) flags every step whose λ₂ solve stopped at
/// the iteration cap, so an approximate λ₂ is never silent. The thresholds
/// are deterministic functions of (topology, options), computed afresh in
/// every cell, so every cell of a campaign reads the same values.
class percolation_engine final : public metric_engine {
public:
    /// Validates the options (`validate(percolation_engine_options)`).
    explicit percolation_engine(percolation_engine_options options = {});

    engine_output evaluate(const evaluation_context& context,
                           const lsn::failure_timeline& timeline) const override;
    std::vector<std::vector<double>> step_traces(
        const engine_output& output) const override;

    static const spectral::percolation_sweep_result& detail(
        const engine_output& output);

private:
    percolation_engine_options options_;
};

/// Session-level serving: user SLOs (delivered-rate percentiles, dropped/
/// degraded session counts, time-to-restore) of the sampled session
/// population (adapts `serve::run_serving_sweep_timeline`). Rows are
/// served as one batch — a visibility pass per step shared by every row —
/// and `evaluate` is the one-row batch. The session grid is sampled from
/// the population when the engine is built and shared by every cell; the
/// engine keeps no reference to the population.
class serving_engine final : public metric_engine {
public:
    /// Validates the options (`serve::validate`) and samples the grid.
    explicit serving_engine(const demand::population_model& population,
                            serve::serving_options options = {});

    engine_output evaluate(const evaluation_context& context,
                           const lsn::failure_timeline& timeline) const override;
    bool batches_rows() const noexcept override { return true; }
    std::vector<engine_output> evaluate_rows(
        const evaluation_context& context,
        const std::vector<const lsn::failure_timeline*>& timelines) const override;
    std::vector<std::vector<double>> step_traces(
        const engine_output& output) const override;

    static const serve::serving_sweep_result& detail(const engine_output& output);

    /// The sampled session population every cell serves.
    const serve::session_grid& grid() const noexcept { return grid_; }

private:
    serve::serving_options options_;
    serve::session_grid grid_;
};

} // namespace ssplane::exp

#endif // SSPLANE_EXP_METRIC_ENGINE_H
