#include "exp/campaign.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::exp {

namespace {

const char* mode_name(lsn::failure_mode mode)
{
    switch (mode) {
    case lsn::failure_mode::none: return "none";
    case lsn::failure_mode::random_loss: return "random_loss";
    case lsn::failure_mode::plane_attack: return "plane_attack";
    case lsn::failure_mode::radiation_poisson: return "radiation_poisson";
    case lsn::failure_mode::kessler_cascade: return "kessler_cascade";
    case lsn::failure_mode::solar_storm: return "solar_storm";
    case lsn::failure_mode::greedy_adversary: return "greedy_adversary";
    }
    return "unknown";
}

} // namespace

std::vector<scenario_spec> expand_scenarios(const experiment_plan& plan)
{
    std::vector<scenario_spec> expanded;
    expanded.reserve(plan.scenarios.size() *
                     std::max<std::size_t>(plan.seeds.size(), 1));
    for (const auto& spec : plan.scenarios) {
        if (plan.seeds.empty()) {
            expanded.push_back(spec);
            continue;
        }
        for (const std::uint64_t seed : plan.seeds) {
            scenario_spec cell = spec;
            cell.scenario.seed = seed;
            cell.name += '#';
            cell.name += std::to_string(seed);
            expanded.push_back(std::move(cell));
        }
    }
    return expanded;
}

int campaign_result::engine_index(std::string_view name) const
{
    for (std::size_t e = 0; e < engine_names.size(); ++e)
        if (engine_names[e] == name) return static_cast<int>(e);
    expects(false, "unknown campaign engine name");
    return -1;
}

double campaign_result::value(int row, std::string_view column) const
{
    std::size_t flat = 0;
    for (int e = 0; e < n_engines; ++e) {
        const auto& values = cell(row, e).values;
        for (std::size_t c = 0; c < values.size(); ++c, ++flat) {
            if (columns[flat] == column) return values[c];
        }
    }
    expects(false, "unknown campaign column");
    return 0.0;
}

void campaign_result::write_csv(std::ostream& out) const
{
    std::vector<std::string> header{"scenario",        "mode", "loss_fraction",
                                    "planes_attacked", "horizon_days", "seed",
                                    "n_failed"};
    header.insert(header.end(), columns.begin(), columns.end());
    // Campaign-constant cache-telemetry summary columns, trailing so the
    // per-row metric layout is untouched.
    const std::vector<std::string> ctx_header{
        "ctx.timeline_cache_hits", "ctx.timeline_cache_misses",
        "ctx.timeline_cache_hit_rate", "ctx.snapshot_builds"};
    header.insert(header.end(), ctx_header.begin(), ctx_header.end());
    csv_writer csv(out, std::move(header));

    const std::vector<std::string> ctx_cells{
        std::to_string(cache.timeline_hits),
        std::to_string(cache.timeline_misses),
        format_number(cache.timeline_hit_rate()),
        std::to_string(cache.snapshot_builds)};

    for (std::size_t r = 0; r < rows.size(); ++r) {
        const auto& row = rows[r];
        std::vector<std::string> cells_text{
            row.name,
            mode_name(row.scenario.mode),
            format_number(row.scenario.loss_fraction),
            format_number(row.scenario.planes_attacked),
            format_number(row.scenario.horizon_days),
            std::to_string(row.scenario.seed),
            std::to_string(row.n_failed)};
        for (int e = 0; e < n_engines; ++e)
            for (const double v : cell(static_cast<int>(r), e).values)
                cells_text.push_back(format_number(v));
        cells_text.insert(cells_text.end(), ctx_cells.begin(), ctx_cells.end());
        csv.row_text(cells_text);
    }
}

void campaign_result::write_step_csv(std::ostream& out) const
{
    std::vector<std::string> header{"scenario", "step", "offset_s"};
    header.insert(header.end(), step_columns.begin(), step_columns.end());
    csv_writer csv(out, std::move(header));

    const std::size_t n_steps = step_offsets_s.size();
    for (std::size_t r = 0; r < rows.size(); ++r) {
        // Gather every engine's traces for this row once; engines without
        // step columns contribute an empty set.
        std::vector<std::vector<double>> traces;
        for (int e = 0; e < n_engines; ++e) {
            auto engine_traces =
                engines[static_cast<std::size_t>(e)]->step_traces(
                    cell(static_cast<int>(r), e));
            ensures(engine_traces.size() ==
                        engines[static_cast<std::size_t>(e)]->step_columns().size(),
                    "engine returned a different number of step traces than its "
                    "step columns");
            for (auto& trace : engine_traces) {
                ensures(trace.size() == n_steps,
                        "engine step trace does not cover every sweep step");
                traces.push_back(std::move(trace));
            }
        }
        for (std::size_t i = 0; i < n_steps; ++i) {
            std::vector<std::string> cells_text{rows[r].name, std::to_string(i),
                                                format_number(step_offsets_s[i])};
            for (const auto& trace : traces)
                cells_text.push_back(format_number(trace[i]));
            csv.row_text(cells_text);
        }
    }
}

campaign_result run_campaign(const experiment_plan& plan,
                             const evaluation_context& context)
{
    OBS_SPAN("campaign.run");
    OBS_COUNT("exp.campaign.runs");
    const cache_statistics cache_before = context.cache_stats();
    expects(!plan.scenarios.empty(), "campaign needs at least one scenario");
    expects(!plan.engines.empty(), "campaign needs at least one metric engine");
    for (const auto& engine : plan.engines) {
        expects(engine != nullptr, "campaign engine must not be null");
        engine->validate_options();
    }

    campaign_result result;
    result.n_engines = static_cast<int>(plan.engines.size());
    result.engines = plan.engines;
    result.step_offsets_s.assign(context.offsets().begin(), context.offsets().end());
    for (const auto& engine : plan.engines) {
        result.engine_names.push_back(engine->name());
        for (const auto& column : engine->columns())
            result.columns.push_back(engine->name() + "." + column);
        for (const auto& column : engine->step_columns())
            result.step_columns.push_back(engine->name() + "." + column);
    }
    // Colliding flattened names (two engines sharing a name) would make
    // `value()` silently return the first engine's number and the CSV emit
    // duplicate headers — fail loudly instead.
    auto sorted_columns = result.columns;
    std::sort(sorted_columns.begin(), sorted_columns.end());
    expects(std::adjacent_find(sorted_columns.begin(), sorted_columns.end()) ==
                sorted_columns.end(),
            "campaign engines produce duplicate column names; give each engine "
            "a distinct name");
    // The step-trace header is a separate namespace (an engine may reuse a
    // scalar column name for its per-step trace), so it needs its own
    // collision guard — engines with step columns but no scalar columns
    // would otherwise collide silently in `write_step_csv`.
    auto sorted_step_columns = result.step_columns;
    std::sort(sorted_step_columns.begin(), sorted_step_columns.end());
    expects(std::adjacent_find(sorted_step_columns.begin(),
                               sorted_step_columns.end()) ==
                sorted_step_columns.end(),
            "campaign engines produce duplicate step-trace column names; give "
            "each engine a distinct name");

    // Resolve the scenario grid and validate every cell's knobs serially,
    // before any parallel work or timeline generation.
    const auto expanded = expand_scenarios(plan);
    for (const auto& spec : expanded)
        lsn::validate(spec.scenario, context.builder().topology());

    // Mirror the column-collision guard for rows: duplicate expanded names
    // would make CSV consumers keying on the scenario column merge or pick
    // the wrong row.
    std::vector<std::string> sorted_names;
    sorted_names.reserve(expanded.size());
    for (const auto& spec : expanded) sorted_names.push_back(spec.name);
    std::sort(sorted_names.begin(), sorted_names.end());
    expects(std::adjacent_find(sorted_names.begin(), sorted_names.end()) ==
                sorted_names.end(),
            "campaign scenarios expand to duplicate names; give each template "
            "a distinct name");

    // Prefetch every failure timeline serially: scenarios sharing (mode,
    // knobs, seed) dedupe onto one generation in the context cache, and
    // the parallel section below only reads. Adversary generation — full
    // traffic sweeps per candidate strike — also happens here, serially.
    std::vector<const lsn::failure_timeline*> timelines;
    timelines.reserve(expanded.size());
    result.rows.reserve(expanded.size());
    {
        OBS_SPAN("campaign.prefetch_timelines");
        for (const auto& spec : expanded) {
            const auto& timeline = context.timeline(spec.scenario);
            timelines.push_back(&timeline);
            result.rows.push_back(
                {spec.name, spec.scenario, timeline.final_n_failed()});
        }
    }

    // Cells sharing (timeline, engine) are bit-identical by each engine's
    // determinism contract, so only one representative per distinct pair is
    // evaluated; duplicates copy its output (sharing the detail payload).
    // The dedup assignment is serial, so it never depends on thread count.
    const std::size_t n_cells =
        expanded.size() * static_cast<std::size_t>(result.n_engines);
    std::vector<std::size_t> computed_as(n_cells);
    std::vector<std::size_t> unique_cells;
    std::map<std::pair<const void*, std::size_t>, std::size_t> representative;
    for (std::size_t i = 0; i < n_cells; ++i) {
        const std::size_t row = i / static_cast<std::size_t>(result.n_engines);
        const std::size_t e = i % static_cast<std::size_t>(result.n_engines);
        const auto [it, inserted] =
            representative.try_emplace({timelines[row], e}, i);
        computed_as[i] = it->second;
        if (inserted) unique_cells.push_back(i);
    }

    result.cells.resize(n_cells);
    OBS_COUNT_N("exp.campaign.cells", n_cells);
    OBS_COUNT_N("exp.campaign.cells_unique", unique_cells.size());
    OBS_COUNT_N("exp.campaign.cells_deduped", n_cells - unique_cells.size());

    // Row batches, at top level so a batch's own parallel passes get the
    // whole pool: each engine is offered its distinct timelines at once,
    // and the cells of an engine that declines are left for the fan-out.
    std::vector<std::size_t> fanned_cells;
    for (std::size_t e = 0; e < plan.engines.size(); ++e) {
        std::vector<std::size_t> engine_cells;
        std::vector<const lsn::failure_timeline*> rows;
        for (const std::size_t i : unique_cells)
            if (i % plan.engines.size() == e) {
                engine_cells.push_back(i);
                rows.push_back(timelines[i / plan.engines.size()]);
            }
#ifndef SSPLANE_OBS_DISABLED
        obs::span batch_span("campaign.batch." + result.engine_names[e]);
#endif
        auto batch = plan.engines[e]->evaluate_rows(context, rows);
        if (batch.empty()) {
#ifndef SSPLANE_OBS_DISABLED
            batch_span.cancel();
#endif
            fanned_cells.insert(fanned_cells.end(), engine_cells.begin(),
                                engine_cells.end());
            continue;
        }
        ensures(batch.size() == rows.size(),
                "engine returned a different number of row-batch outputs than rows");
        for (std::size_t k = 0; k < batch.size(); ++k)
            result.cells[engine_cells[k]] = std::move(batch[k]);
    }
    std::sort(fanned_cells.begin(), fanned_cells.end());

    // Per-cell result slots, one chunk per cell: every worker writes only
    // its own slots, so any SSPLANE_THREADS value reproduces the campaign
    // bit-for-bit (engines nested inside a worker degrade to their serial
    // path, which is bit-identical by each engine's own contract).
    {
        OBS_SPAN("campaign.cells");
        parallel_for(
            fanned_cells.size(),
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t u = begin; u < end; ++u) {
                    const std::size_t i = fanned_cells[u];
                    const std::size_t row = i / static_cast<std::size_t>(result.n_engines);
                    const std::size_t e = i % static_cast<std::size_t>(result.n_engines);
#ifndef SSPLANE_OBS_DISABLED
                    // Per-cell span named by engine so the trace shows which
                    // metric the time went to.
                    const obs::span cell_span("campaign.cell." +
                                              result.engine_names[e]);
#endif
                    result.cells[i] = plan.engines[e]->evaluate(context, *timelines[row]);
                }
            },
            /*chunk_size=*/1);
    }
    for (std::size_t i = 0; i < n_cells; ++i)
        if (computed_as[i] != i) result.cells[i] = result.cells[computed_as[i]];

    result.cache = context.cache_stats() - cache_before;
    OBS_COUNT_N("exp.snapshot.rebuilds", result.cache.snapshot_builds);

    // Third-party engines must honour their own column contract — a
    // mismatched cell would silently misalign `value()` and `write_csv`.
    for (std::size_t i = 0; i < n_cells; ++i)
        ensures(result.cells[i].values.size() ==
                    plan.engines[i % static_cast<std::size_t>(result.n_engines)]
                        ->columns()
                        .size(),
                "engine returned a different number of values than its columns");
    return result;
}

} // namespace ssplane::exp
