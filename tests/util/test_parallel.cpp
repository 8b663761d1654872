#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ssplane {
namespace {

/// Restore automatic sizing after each test.
class ParallelTest : public ::testing::Test {
protected:
    ~ParallelTest() override { set_thread_count(0); }
};

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce)
{
    for (const unsigned threads : {1u, 4u}) {
        set_thread_count(threads);
        std::vector<std::atomic<int>> hits(1000);
        parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST_F(ParallelTest, TracedCallerWaitIsAPoolWaitSpan)
{
#if defined(SSPLANE_OBS_DISABLED)
    GTEST_SKIP() << "spans compile away under -DSSPLANE_OBS=OFF";
#else
    // On a pool of two threads the caller blocks while the chunks sleep:
    // that wait is a `pool.wait` child of the enclosing span, so the phase
    // report books it apart from the enclosing phase's self time. The
    // serial path waits for nothing and records no `pool.wait`.
    const auto traced = [](unsigned threads) {
        set_thread_count(threads);
        obs::trace_reset();
        obs::set_tracing_enabled(true);
        {
            OBS_SPAN("parallel.test.phase");
            parallel_for(
                4,
                [](std::size_t, std::size_t) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(5));
                },
                1);
        }
        obs::set_tracing_enabled(false);
        auto stats = obs::phase_stats();
        obs::trace_reset();
        return stats;
    };
    const auto find = [](const std::vector<obs::phase_stat>& stats, const char* name) {
        const auto it = std::find_if(stats.begin(), stats.end(),
                                     [&](const obs::phase_stat& s) { return s.name == name; });
        return it == stats.end() ? nullptr : &*it;
    };

    const auto pooled = traced(2);
    const auto* phase = find(pooled, "parallel.test.phase");
    const auto* wait = find(pooled, "pool.wait");
    ASSERT_NE(phase, nullptr);
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->count, 1u);
    EXPECT_EQ(phase->self_ns, phase->wall_ns - wait->wall_ns);
    EXPECT_LT(phase->self_ns, phase->wall_ns);
    EXPECT_GE(wait->wall_ns, 10'000'000u); // four 5 ms chunks on two workers

    const auto serial = traced(1);
    EXPECT_NE(find(serial, "parallel.test.phase"), nullptr);
    EXPECT_EQ(find(serial, "pool.wait"), nullptr);
    EXPECT_EQ(find(serial, "pool.task"), nullptr);
#endif
}

TEST_F(ParallelTest, ZeroIterationsIsANoop)
{
    set_thread_count(4);
    bool called = false;
    parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST_F(ParallelTest, ChunkBoundariesIndependentOfThreadCount)
{
    const std::size_t n = 10000;
    const std::size_t chunk = 256;
    const auto boundaries_with = [&](unsigned threads) {
        set_thread_count(threads);
        std::vector<std::atomic<std::size_t>> begin_of(n);
        parallel_for(
            n,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) begin_of[i].store(begin);
            },
            chunk);
        std::vector<std::size_t> out(n);
        for (std::size_t i = 0; i < n; ++i) out[i] = begin_of[i].load();
        return out;
    };
    EXPECT_EQ(boundaries_with(1), boundaries_with(5));
}

TEST_F(ParallelTest, MapPreservesIndexOrder)
{
    set_thread_count(4);
    const auto out =
        parallel_map<std::size_t>(500, [](std::size_t i) { return i * i; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST_F(ParallelTest, NestedCallsRunSerially)
{
    set_thread_count(4);
    std::atomic<int> total{0};
    parallel_for(8, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            parallel_for(10, [&](std::size_t b, std::size_t e) {
                total.fetch_add(static_cast<int>(e - b));
            });
        }
    });
    EXPECT_EQ(total.load(), 80);
}

TEST_F(ParallelTest, PropagatesBodyException)
{
    set_thread_count(4);
    EXPECT_THROW(parallel_for(100,
                              [](std::size_t begin, std::size_t) {
                                  if (begin == 0) throw std::runtime_error("boom");
                              },
                              10),
                 std::runtime_error);
}

TEST_F(ParallelTest, TaskGroupRunsEachTaskExactlyOnce)
{
    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(threads);
        set_thread_count(threads);
        std::vector<std::atomic<int>> hits(200);
        task_group group;
        for (auto& hit : hits) {
            std::atomic<int>* slot = &hit;
            group.run([slot] { slot->fetch_add(1); });
        }
        group.wait();
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST_F(ParallelTest, TaskGroupRethrowsTheFirstErrorAfterEveryTaskFinished)
{
    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(threads);
        set_thread_count(threads);
        // The failures come first; every slow task after them still runs to
        // the end before `wait` rethrows.
        std::vector<std::atomic<bool>> finished(8);
        task_group group;
        group.run([] { throw std::runtime_error("first"); });
        group.run([] { throw std::logic_error("second"); });
        for (auto& flag : finished) {
            std::atomic<bool>* done = &flag;
            group.run([done] {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                done->store(true);
            });
        }
        std::string error;
        try {
            group.wait();
        } catch (const std::exception& e) {
            error = e.what();
        }
        for (const auto& flag : finished) EXPECT_TRUE(flag.load());
        // Inline tasks fail in queue order; pooled ones race for first.
        if (threads == 1)
            EXPECT_EQ(error, "first");
        else
            EXPECT_TRUE(error == "first" || error == "second") << error;
        // The error was taken: the group is empty again.
        EXPECT_NO_THROW(group.wait());
    }
}

TEST_F(ParallelTest, TaskGroupRunsInlineWithOneWorkerAndInsidePoolTasks)
{
    const auto ran_on_caller = [] {
        const std::thread::id caller = std::this_thread::get_id();
        std::atomic<bool> inline_run{false};
        std::atomic<bool>* flag = &inline_run;
        task_group group;
        group.run([flag, caller] { flag->store(std::this_thread::get_id() == caller); });
        // An inline task has finished when `run` returns.
        const bool result = inline_run.load();
        group.wait();
        return result;
    };
    set_thread_count(1);
    EXPECT_TRUE(ran_on_caller());

    set_thread_count(4);
    EXPECT_FALSE(ran_on_caller());
    std::vector<std::atomic<int>> nested(4);
    parallel_for(
        nested.size(),
        [&](std::size_t begin, std::size_t) { nested[begin].store(ran_on_caller() ? 1 : 2); },
        1);
    for (const auto& n : nested) EXPECT_EQ(n.load(), 1);
}

TEST_F(ParallelTest, TaskGroupDestructorJoins)
{
    set_thread_count(2);
    std::vector<std::atomic<bool>> finished(4);
    {
        task_group group;
        for (auto& flag : finished) {
            std::atomic<bool>* done = &flag;
            group.run([done] {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                done->store(true);
            });
        }
    }
    for (const auto& flag : finished) EXPECT_TRUE(flag.load());

    // Joining on an unwinding path swallows the tasks' errors and still
    // waits for every task.
    std::atomic<bool> slow_done{false};
    std::atomic<bool>* done = &slow_done;
    EXPECT_THROW(
        {
            task_group group;
            group.run([] { throw std::runtime_error("task"); });
            group.run([done] {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                done->store(true);
            });
            throw std::logic_error("caller");
        },
        std::logic_error);
    EXPECT_TRUE(slow_done.load());
}

TEST_F(ParallelTest, TaskGroupCountsOneRegionAndOneChunkPerTask)
{
#if defined(SSPLANE_OBS_DISABLED)
    GTEST_SKIP() << "counters compile away under -DSSPLANE_OBS=OFF";
#else
    const auto pool_counts = [] {
        double regions = 0.0;
        double chunks = 0.0;
        for (const auto& sample : obs::deterministic_snapshot()) {
            if (sample.name == "pool.parallel_regions") regions = sample.value;
            if (sample.name == "pool.chunks") chunks = sample.value;
        }
        return std::pair{regions, chunks};
    };
    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(threads);
        set_thread_count(threads);
        obs::registry::instance().reset();
        {
            task_group group;
            for (int t = 0; t < 5; ++t) group.run([] {});
            group.wait();
        }
        EXPECT_EQ(pool_counts(), (std::pair{1.0, 5.0}));

        // Like parallel_for(0), a group that ran nothing counts nothing.
        obs::registry::instance().reset();
        {
            task_group group;
            group.wait();
        }
        parallel_for(0, [](std::size_t, std::size_t) {});
        EXPECT_EQ(pool_counts(), (std::pair{0.0, 0.0}));
    }
    obs::registry::instance().reset();
#endif
}

TEST_F(ParallelTest, ThreadCountOverrideAndRestore)
{
    set_thread_count(3);
    EXPECT_EQ(thread_count(), 3u);
    set_thread_count(0);
    EXPECT_GE(thread_count(), 1u);
}

TEST_F(ParallelTest, EnvironmentThreadCountIsAWholeDecimalUpTo1024)
{
    // Read through thread_count() alone: no parallel call, so no pool is
    // built while an oversized value is set.
    set_thread_count(0);
    const char* old = std::getenv("SSPLANE_THREADS");
    const std::optional<std::string> saved =
        old ? std::optional<std::string>(old) : std::nullopt;
    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());

    setenv("SSPLANE_THREADS", "2", 1);
    EXPECT_EQ(thread_count(), 2u);
    setenv("SSPLANE_THREADS", "1024", 1);
    EXPECT_EQ(thread_count(), 1024u);
    for (const char* ignored :
         {"", "0", "-3", "4abc", "1e3", " 8", "1025", "100000"}) {
        setenv("SSPLANE_THREADS", ignored, 1);
        EXPECT_EQ(thread_count(), hardware) << "'" << ignored << "'";
    }
    unsetenv("SSPLANE_THREADS");
    EXPECT_EQ(thread_count(), hardware);

    if (saved) setenv("SSPLANE_THREADS", saved->c_str(), 1);
}

} // namespace
} // namespace ssplane
