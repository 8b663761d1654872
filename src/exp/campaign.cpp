#include "exp/campaign.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
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

/// Cost estimate of a cell: its timeline's count of distinct consecutive
/// mask rows (1 for a static timeline).
std::size_t distinct_rows(const lsn::failure_timeline& timeline)
{
    std::size_t rows = 1;
    for (int i = 1; i < timeline.n_steps; ++i) {
        const auto before = timeline.step(i - 1);
        const auto now = timeline.step(i);
        if (!std::equal(before.begin(), before.end(), now.begin(), now.end())) ++rows;
    }
    return rows;
}

/// Throw `message` when a name occurs twice in `names`. Colliding column
/// names (two engines sharing a name) would make `value()` silently return
/// the first engine's number and the CSV emit duplicate headers; colliding
/// row names would make CSV consumers keying on the scenario column merge
/// or pick the wrong row.
void expect_distinct(std::vector<std::string> names, const char* message)
{
    std::sort(names.begin(), names.end());
    expects(std::adjacent_find(names.begin(), names.end()) == names.end(), message);
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
    for (const auto& engine : plan.engines)
        expects(engine != nullptr, "campaign engine must not be null");

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
    expect_distinct(result.columns,
                    "campaign engines produce duplicate column names; give each "
                    "engine a distinct name");
    // The step-trace header is a separate namespace (an engine may reuse a
    // scalar column name for its per-step trace), so it needs its own
    // guard: engines with step columns but no scalar columns would
    // otherwise collide silently in `write_step_csv`.
    expect_distinct(result.step_columns,
                    "campaign engines produce duplicate step-trace column names; "
                    "give each engine a distinct name");

    // Resolve the scenario grid and validate every cell's knobs serially,
    // before any parallel work or timeline generation.
    const auto expanded = expand_scenarios(plan);
    for (const auto& spec : expanded)
        lsn::validate(spec.scenario, context.builder().topology());

    std::vector<std::string> names;
    for (const auto& spec : expanded) names.push_back(spec.name);
    expect_distinct(std::move(names),
                    "campaign scenarios expand to duplicate names; give each "
                    "template a distinct name");

    // One task graph on the pool. The sampled timelines are cheap to draw,
    // so they resolve first and their cells start at once; the greedy
    // adversary's generation (full traffic sweeps per candidate strike)
    // then runs on this thread, its trial sweeps queued behind those cells,
    // and its rows' cells follow. Timelines resolve serially in row order
    // within each pass, so scenarios with equal `lsn::canonical` forms dedupe
    // onto one generation in the context cache. Cells sharing (timeline,
    // engine) are bit-identical by each engine's determinism contract, so
    // only the first of them in cell order is evaluated; the rest copy its
    // output (sharing the detail payload). Every task writes only its own
    // slot, so any SSPLANE_THREADS value reproduces the campaign bit for
    // bit (engines nested inside a task degrade to their serial path,
    // bit-identical by each engine's own contract).
    const std::size_t n_engines = plan.engines.size();
    const std::size_t n_cells = expanded.size() * n_engines;
    result.rows.resize(expanded.size());
    result.cells.resize(n_cells);
    std::vector<const lsn::failure_timeline*> timelines(expanded.size());
    std::vector<std::size_t> computed_as(n_cells);
    std::map<std::pair<const void*, std::size_t>, std::size_t> representative;
    task_group cell_tasks;
    for (const bool adversary : {false, true}) {
        std::vector<std::size_t> pass_rows;
        for (std::size_t r = 0; r < expanded.size(); ++r)
            if ((expanded[r].scenario.mode == lsn::failure_mode::greedy_adversary) ==
                adversary)
                pass_rows.push_back(r);
        if (pass_rows.empty()) continue;

        std::vector<std::pair<std::size_t, std::size_t>> queued; // (estimate, cell)
        {
            OBS_SPAN("campaign.prefetch_timelines");
            for (const std::size_t r : pass_rows) {
                const auto& timeline = context.timeline(expanded[r].scenario);
                timelines[r] = &timeline;
                result.rows[r] = {expanded[r].name, expanded[r].scenario,
                                  timeline.final_n_failed()};
                for (std::size_t e = 0; e < n_engines; ++e) {
                    const std::size_t i = r * n_engines + e;
                    const auto [it, inserted] = representative.try_emplace({&timeline, e}, i);
                    computed_as[i] = it->second;
                    if (inserted && !plan.engines[e]->batches_rows())
                        queued.emplace_back(distinct_rows(timeline), i);
                }
            }
        }
        // Longest first by a deterministic estimate, ties in cell order.
        std::sort(queued.begin(), queued.end(), [](const auto& a, const auto& b) {
            return a.first != b.first ? a.first > b.first : a.second < b.second;
        });
        for (const auto& [estimate, i] : queued) {
            const metric_engine* engine = plan.engines[i % n_engines].get();
            const evaluation_context* ctx = &context;
            const lsn::failure_timeline* timeline = timelines[i / n_engines];
            engine_output* slot = &result.cells[i];
            cell_tasks.run([engine, ctx, timeline, slot] {
#ifndef SSPLANE_OBS_DISABLED
                // Per-cell span named by engine so the trace shows which
                // metric the time went to.
                const obs::span cell_span("campaign.cell." + engine->name());
#endif
                *slot = engine->evaluate(*ctx, *timeline);
            });
        }
    }
    {
        OBS_SPAN("campaign.cells"); // the final join
        cell_tasks.wait();
    }

    // Row batches, each alone at top level so its own parallel passes get
    // the whole pool, and after the join, because a batch beside queued
    // cells holds both working sets at once (walker_static's peak RSS rose
    // by about a tenth): an engine that batches rows takes its distinct
    // timelines in row order.
    for (std::size_t e = 0; e < n_engines; ++e) {
        if (!plan.engines[e]->batches_rows()) continue;
        std::vector<std::size_t> engine_cells;
        std::vector<const lsn::failure_timeline*> rows;
        for (std::size_t i = e; i < n_cells; i += n_engines)
            if (computed_as[i] == i) {
                engine_cells.push_back(i);
                rows.push_back(timelines[i / n_engines]);
            }
#ifndef SSPLANE_OBS_DISABLED
        const obs::span batch_span("campaign.batch." + result.engine_names[e]);
#endif
        auto batch = plan.engines[e]->evaluate_rows(context, rows);
        ensures(batch.size() == rows.size(),
                "engine returned a different number of row-batch outputs than rows");
        for (std::size_t k = 0; k < batch.size(); ++k)
            result.cells[engine_cells[k]] = std::move(batch[k]);
    }

    std::size_t n_unique = 0;
    for (std::size_t i = 0; i < n_cells; ++i) {
        if (computed_as[i] == i)
            ++n_unique;
        else
            result.cells[i] = result.cells[computed_as[i]];
    }
    OBS_COUNT_N("exp.campaign.cells", n_cells);
    OBS_COUNT_N("exp.campaign.cells_unique", n_unique);
    OBS_COUNT_N("exp.campaign.cells_deduped", n_cells - n_unique);

    result.cache = context.cache_stats() - cache_before;
    OBS_COUNT_N("exp.snapshot.rebuilds", result.cache.snapshot_builds);

    // Third-party engines must honour their own column contract — a
    // mismatched cell would silently misalign `value()` and `write_csv`.
    for (std::size_t i = 0; i < n_cells; ++i)
        ensures(result.cells[i].values.size() ==
                    plan.engines[i % n_engines]->columns().size(),
                "engine returned a different number of values than its columns");
    return result;
}

} // namespace ssplane::exp
