#include "util/parallel.h"

#include "obs/metrics.h"
#include "obs/trace.h"

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace ssplane {

namespace {

/// SSPLANE_THREADS when it is a whole decimal in [1, 1024], else hardware
/// concurrency. Empty means unset; any other value is named once on stderr.
unsigned env_thread_count() noexcept
{
    const char* env = std::getenv("SSPLANE_THREADS");
    if (env != nullptr && *env != '\0') {
        const char* const end = env + std::strlen(env);
        unsigned n = 0;
        const auto [stop, error] = std::from_chars(env, end, n);
        if (error == std::errc{} && stop == end && n >= 1 && n <= 1024) return n;
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            std::fprintf(stderr, "ignoring SSPLANE_THREADS='%s': not a whole number "
                                 "in [1, 1024]; using hardware concurrency\n", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::atomic<unsigned> g_requested_threads{0}; // 0 = auto

/// Set while a pool worker runs a task: nested parallel_for goes serial.
thread_local bool t_in_worker = false;

class thread_pool {
public:
    explicit thread_pool(unsigned n_workers)
    {
        workers_.reserve(n_workers);
        for (unsigned i = 0; i < n_workers; ++i)
            workers_.emplace_back([this] { worker_loop(); });
    }

    ~thread_pool()
    {
        {
            const std::lock_guard lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (auto& w : workers_) w.join();
    }

    unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

    void submit(std::function<void()> task)
    {
        {
            const std::lock_guard lock(mutex_);
            tasks_.push_back(std::move(task));
            // Scheduler telemetry: how deep the queue got before workers
            // drained it. Depends on timing, hence _SCHED.
            OBS_COUNT_SCHED("pool.tasks");
            OBS_RECORD_SCHED("pool.queue_depth", tasks_.size());
        }
        wake_.notify_one();
    }

private:
    void worker_loop()
    {
        t_in_worker = true;
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock lock(mutex_);
                // A worker that finds the queue empty is about to block —
                // count the wait (idle-worker telemetry, timing-dependent).
                if (!stopping_ && tasks_.empty()) OBS_COUNT_SCHED("pool.steal_waits");
                wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
                if (stopping_ && tasks_.empty()) return;
                task = std::move(tasks_.front());
                tasks_.pop_front();
            }
            task();
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> tasks_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

std::mutex g_pool_mutex;
std::unique_ptr<thread_pool> g_pool;

/// The pool, rebuilt when the requested size changed. Caller must not hold
/// tasks in flight across a resize (documented in the header).
thread_pool& pool_for(unsigned n_workers)
{
    const std::lock_guard lock(g_pool_mutex);
    if (!g_pool || g_pool->size() != n_workers)
        g_pool = std::make_unique<thread_pool>(n_workers);
    return *g_pool;
}

} // namespace

/// Completion latch of a group's pooled tasks: counts them down and keeps
/// the first error. The tasks share it, so one that counts itself done
/// never touches a latch its waiter has already dropped.
struct task_group::latch {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining = 0;
    std::exception_ptr error;

    void fail(std::exception_ptr e)
    {
        const std::lock_guard lock(mutex);
        if (!error) error = std::move(e);
    }
};

unsigned thread_count() noexcept
{
    const unsigned requested = g_requested_threads.load(std::memory_order_relaxed);
    return requested > 0 ? requested : env_thread_count();
}

void set_thread_count(unsigned n)
{
    g_requested_threads.store(n, std::memory_order_relaxed);
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t chunk_size)
{
    if (n == 0) return;
    // Deterministic chunking: independent of the worker count so that
    // chunk-indexed reductions reproduce bit-identically everywhere, and
    // so are the group's region and chunk counts.
    if (chunk_size == 0) chunk_size = (n + 63) / 64;
    if (chunk_size >= n) {
        // One chunk gains nothing from the pool: run it here, counted as
        // the pool would count it.
        OBS_COUNT("pool.parallel_regions");
        OBS_COUNT("pool.chunks");
        body(0, n);
        return;
    }
    // With one worker or inside a pool task the group runs the chunks
    // inline, in order, at the same boundaries.
    task_group chunks;
    for (std::size_t begin = 0; begin < n; begin += chunk_size) {
        const std::size_t end = std::min(n, begin + chunk_size);
        // DETLINT-ALLOW(ref-capture-task): `body` outlives every chunk task
        // — the group joins before this frame returns — and is only
        // invoked, never mutated; chunk ranges are disjoint.
        chunks.run([&body, begin, end] { body(begin, end); });
    }
    chunks.wait();
}

task_group::task_group()
    : latch_(std::make_shared<latch>()), workers_(t_in_worker ? 1 : thread_count())
{
}

task_group::~task_group() { (void)join(); }

void task_group::run(std::function<void()> task)
{
    // One region per group and one chunk per task, counted the same on the
    // inline path, so the counters never depend on the worker count.
    if (!counted_) OBS_COUNT("pool.parallel_regions");
    counted_ = true;
    OBS_COUNT("pool.chunks");
    if (workers_ <= 1) {
        try {
            task();
        } catch (...) {
            latch_->fail(std::current_exception());
        }
        return;
    }
    {
        const std::lock_guard lock(latch_->mutex);
        ++latch_->remaining;
    }
    pooled_ = true;
    pool_for(workers_).submit([latch = latch_, task = std::move(task)]() mutable {
        {
            // The task and its captures are gone, and its span recorded,
            // before it counts itself done and the group's join returns.
            const auto body = std::move(task);
            try {
                OBS_SPAN("pool.task");
                body();
            } catch (...) {
                latch->fail(std::current_exception());
            }
        }
        {
            const std::lock_guard lock(latch->mutex);
            --latch->remaining;
        }
        latch->done.notify_all();
    });
}

void task_group::wait()
{
    if (auto error = join()) std::rethrow_exception(error);
}

std::exception_ptr task_group::join()
{
    if (std::exchange(pooled_, false)) {
        // The caller's wait for pooled tasks is its own span, kept out of
        // the enclosing phase's self time.
        OBS_SPAN("pool.wait");
        std::unique_lock lock(latch_->mutex);
        latch_->done.wait(lock, [this] { return latch_->remaining == 0; });
    }
    const std::lock_guard lock(latch_->mutex);
    return std::exchange(latch_->error, nullptr);
}

} // namespace ssplane
