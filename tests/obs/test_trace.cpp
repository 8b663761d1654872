#include "obs/trace.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ssplane::obs {
namespace {

/// Restores the tracing gate and drops this test's spans on scope exit so
/// tests cannot leak state into each other.
struct trace_sandbox {
    trace_sandbox()
    {
        set_tracing_enabled(false);
        trace_reset();
    }
    ~trace_sandbox()
    {
        set_tracing_enabled(false);
        trace_reset();
    }
};

/// Minimal structural JSON validator: brackets/braces balanced outside
/// strings, string escapes legal. Enough to catch malformed emission
/// without a JSON library.
bool json_well_formed(const std::string& text)
{
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    for (const char c : text) {
        if (in_string) {
            if (escaped) escaped = false;
            else if (c == '\\') escaped = true;
            else if (c == '"') in_string = false;
            continue;
        }
        switch (c) {
        case '"': in_string = true; break;
        case '{':
        case '[': stack.push_back(c); break;
        case '}':
            if (stack.empty() || stack.back() != '{') return false;
            stack.pop_back();
            break;
        case ']':
            if (stack.empty() || stack.back() != '[') return false;
            stack.pop_back();
            break;
        default: break;
        }
    }
    return !in_string && stack.empty();
}

std::size_t count_of(const std::string& text, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(Trace, SpansRecordOnlyWhenTracingIsEnabled)
{
    const trace_sandbox sandbox;
    {
        const span off("trace.test.off");
        (void)off;
    }
    EXPECT_TRUE(trace_snapshot().empty());

    set_tracing_enabled(true);
    {
        const span on("trace.test.on");
        (void)on;
    }
    const auto spans = trace_snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "trace.test.on");
    EXPECT_GE(spans[0].end_ns, spans[0].begin_ns);
    EXPECT_GE(spans[0].tid, 1u);
}

TEST(Trace, SnapshotOrdersParentsBeforeChildren)
{
    const trace_sandbox sandbox;
    // Synthetic timestamps make the trace fully deterministic: outer
    // [0,1000] wraps inner [100,400] and [500,900].
    record_span("trace.test.inner_b", 500, 900);
    record_span("trace.test.outer", 0, 1000);
    record_span("trace.test.inner_a", 100, 400);
    const auto spans = trace_snapshot();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "trace.test.outer");
    EXPECT_EQ(spans[1].name, "trace.test.inner_a");
    EXPECT_EQ(spans[2].name, "trace.test.inner_b");
}

TEST(Trace, ChromeTraceSchemaIsWellFormedAndBalanced)
{
    const trace_sandbox sandbox;
    record_span("trace.test.outer", 0, 2000);
    record_span("trace.test.inner", 250, 1750);
    record_span("quoted\"name", 3000, 4000);
    std::ostringstream out;
    write_chrome_trace(out);
    const std::string json = out.str();

    EXPECT_TRUE(json_well_formed(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // Balanced begin/end events, every event fully addressed.
    EXPECT_EQ(count_of(json, "\"ph\":\"B\""), 3u);
    EXPECT_EQ(count_of(json, "\"ph\":\"E\""), 3u);
    EXPECT_EQ(count_of(json, "\"pid\":"), 6u);
    EXPECT_EQ(count_of(json, "\"tid\":"), 6u);
    EXPECT_EQ(count_of(json, "\"ts\":"), 6u);
    // ts is microseconds with the sub-µs digits preserved: 250ns = 0.250µs.
    EXPECT_NE(json.find("\"ts\":0.250"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1.750"), std::string::npos);
    // Names are escaped, and nesting emits inner E before outer E.
    EXPECT_NE(json.find("quoted\\\"name"), std::string::npos);
    const auto inner_end = json.find("\"ts\":1.750");
    const auto outer_end = json.find("\"ts\":2.000");
    ASSERT_NE(inner_end, std::string::npos);
    ASSERT_NE(outer_end, std::string::npos);
    EXPECT_LT(inner_end, outer_end);
}

TEST(Trace, PhaseStatsComputeWallAndSelfTime)
{
    const trace_sandbox sandbox;
    // outer [0,1000] directly nests inner [100,400] and [500,900]: outer
    // self = 1000 - 700. A second outer instance has no children.
    record_span("trace.test.outer", 0, 1000);
    record_span("trace.test.inner", 100, 400);
    record_span("trace.test.inner", 500, 900);
    record_span("trace.test.outer", 2000, 2100);
    const auto stats = phase_stats();
    ASSERT_EQ(stats.size(), 2u);
    // Sorted by wall descending.
    EXPECT_EQ(stats[0].name, "trace.test.outer");
    EXPECT_EQ(stats[0].count, 2u);
    EXPECT_EQ(stats[0].wall_ns, 1100u);
    EXPECT_EQ(stats[0].self_ns, 400u);
    EXPECT_EQ(stats[1].name, "trace.test.inner");
    EXPECT_EQ(stats[1].count, 2u);
    EXPECT_EQ(stats[1].wall_ns, 700u);
    EXPECT_EQ(stats[1].self_ns, 700u);

    std::ostringstream out;
    write_phase_summary(out);
    EXPECT_NE(out.str().find("trace.test.outer"), std::string::npos);
    EXPECT_NE(out.str().find("wall_ms"), std::string::npos);
    // No campaign phase spans: no busy table.
    EXPECT_TRUE(phase_busy_fractions().empty());
    EXPECT_EQ(out.str().find("campaign phase"), std::string::npos);
}

TEST(Trace, PhaseBusyFractionsAreEachWorkersPoolTaskOverlap)
{
    const trace_sandbox sandbox;
    // The main thread runs a campaign [0, 1000] of four phases: a timeline
    // pass [0, 400], a serving batch [400, 600] and the final join of the
    // cells [600, 1000], then an empty bulk batch at 1000. The campaign and
    // its first pass begin together; the enclosing span lists first. Two
    // workers, started one after the other so the first holds the lower
    // tid, run `pool.task` spans; a third thread runs none and is no
    // worker, and a span that is no campaign phase is no row.
    record_span("campaign.run", 0, 1000);
    record_span("campaign.prefetch_timelines", 0, 400);
    record_span("exp.timeline_generate", 100, 400);
    record_span("campaign.batch.serving", 400, 600);
    record_span("campaign.cells", 600, 1000);
    record_span("campaign.batch.bulk", 1000, 1000);
    EXPECT_EQ(phase_busy_fractions().size(), 5u);
    EXPECT_TRUE(phase_busy_fractions()[0].worker_busy.empty());
    EXPECT_EQ(phase_busy_fractions()[0].task_ns, 0u);
    std::thread first([] {
        record_span("pool.task", 0, 400);
        record_span("pool.task", 450, 550);
        record_span("pool.task", 600, 700);
        record_span("campaign.cell.traffic", 610, 690);
    });
    first.join();
    std::thread second([] { record_span("pool.task", 200, 500); });
    second.join();
    std::thread idle([] { record_span("trace.test.idle", 0, 1000); });
    idle.join();

    const auto phases = phase_busy_fractions();
    ASSERT_EQ(phases.size(), 5u);
    const std::vector<std::string> names{"campaign.run", "campaign.prefetch_timelines",
                                         "campaign.batch.serving", "campaign.cells",
                                         "campaign.batch.bulk"};
    const std::vector<std::uint64_t> walls{1000, 400, 200, 400, 0};
    // Summed pool.task time: over the whole campaign, every task's.
    const std::vector<std::uint64_t> tasks{900, 600, 200, 100, 0};
    const std::vector<std::vector<double>> busy{
        {0.6, 0.3}, {1.0, 0.5}, {0.5, 0.5}, {0.25, 0.0}, {0.0, 0.0}};
    for (std::size_t i = 0; i < phases.size(); ++i) {
        SCOPED_TRACE(phases[i].name);
        EXPECT_EQ(phases[i].name, names[i]);
        EXPECT_EQ(phases[i].wall_ns, walls[i]);
        EXPECT_EQ(phases[i].task_ns, tasks[i]);
        EXPECT_EQ(phases[i].worker_busy, busy[i]);
    }

    std::ostringstream out;
    write_phase_summary(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("campaign phase"), std::string::npos);
    EXPECT_NE(text.find("task_ms"), std::string::npos);
    EXPECT_NE(text.find(" 60.0 30.0\n"), std::string::npos) << text;
    EXPECT_NE(text.find(" 100.0 50.0\n"), std::string::npos) << text;
    EXPECT_NE(text.find(" 25.0 0.0\n"), std::string::npos) << text;
}

TEST(Trace, ThreadsGetDistinctTidsAndResetClearsAllBuffers)
{
    const trace_sandbox sandbox;
    record_span("trace.test.main", 0, 10);
    std::uint32_t worker_tid = 0;
    std::thread worker([&] {
        record_span("trace.test.worker", 5, 15);
        for (const auto& s : trace_snapshot())
            if (s.name == "trace.test.worker") worker_tid = s.tid;
    });
    worker.join();
    const auto spans = trace_snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_NE(spans[0].tid, spans[1].tid);
    EXPECT_NE(worker_tid, 0u);
    // The worker thread is gone, but its buffer (and reset) still work.
    trace_reset();
    EXPECT_TRUE(trace_snapshot().empty());
}

#ifndef SSPLANE_OBS_DISABLED
TEST(Trace, SpanMacroTracesTheEnclosingScope)
{
    const trace_sandbox sandbox;
    set_tracing_enabled(true);
    {
        OBS_SPAN("trace.test.macro");
    }
    const auto spans = trace_snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "trace.test.macro");
}
#endif

} // namespace
} // namespace ssplane::obs
