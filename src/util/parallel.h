// Shared-memory parallelism for the evaluation engine.
//
// A process-wide thread pool serves `parallel_for`/`parallel_map`, the
// primitives the radiation sweeps, the greedy designer and the evaluators
// route through, and `task_group`, the detached tasks a campaign queues
// while its calling thread goes on with other work. Design constraints, in
// order:
//   * deterministic results — chunk boundaries never depend on the worker
//     count, so chunk-indexed reductions are bit-reproducible on any
//     machine (a laptop and a 128-core box produce identical figures);
//     tasks write only their own result slots;
//   * safe nesting — a body or task that itself calls parallel_for
//     degrades to the serial path instead of deadlocking the pool;
//   * zero overhead when it cannot help — one hardware thread (or tiny n)
//     runs inline on the caller with no queue traffic.
#ifndef SSPLANE_UTIL_PARALLEL_H
#define SSPLANE_UTIL_PARALLEL_H

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

namespace ssplane {

/// Worker threads the global pool will use (always >= 1). Resolution order:
/// last `set_thread_count` value, the SSPLANE_THREADS environment variable
/// (a whole decimal in [1, 1024]; empty means unset, anything else is
/// ignored with one stderr line per process), then hardware concurrency.
unsigned thread_count() noexcept;

/// Override the pool size; `n == 0` restores automatic sizing. Takes effect
/// on the next parallel call. Not safe to call concurrently with an
/// in-flight parallel_for or a task_group holding unfinished tasks.
void set_thread_count(unsigned n);

/// Invoke `body(begin, end)` over disjoint chunks covering [0, n).
/// `chunk_size == 0` picks a deterministic default (~n/64). Bodies run
/// concurrently on the pool; exceptions propagate to the caller (first one
/// wins). Nested calls from inside a body run serially. When traced, each
/// chunk is a `pool.task` span on its worker and the caller's wait for them
/// a `pool.wait` span; the serial path records neither.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t chunk_size = 0);

/// out[i] = fn(i) for i in [0, n), evaluated in parallel, returned in index
/// order — parallelism never reorders results.
template <class T, class F>
std::vector<T> parallel_map(std::size_t n, F&& fn)
{
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
    });
    return out;
}

/// Detached tasks on the shared pool, joined as one; `parallel_for` runs
/// its chunks as one group. `run` queues a task behind everything the pool
/// already holds (FIFO, so a `parallel_for` issued later by the caller
/// queues behind it) and returns at once; with one worker, or in a group
/// built inside a pool task, it runs the task inline instead. Every task
/// runs exactly once, whatever the others do. `wait` blocks until all of
/// them have finished and then rethrows the first error; the destructor
/// joins too, so no task outlives the group on any path. A task must
/// capture what it touches by value (pointers to its slot and inputs):
/// nothing but the join orders it against the caller. A group counts one
/// `pool.parallel_regions` and one `pool.chunks` per task, whatever the
/// worker count (nothing when no task ran). When traced, each pooled task
/// is a `pool.task` span and `wait` a `pool.wait` span; inline tasks record
/// neither. The group itself belongs to one thread, which runs, waits and
/// destroys it.
class task_group {
public:
    task_group();
    ~task_group();
    task_group(const task_group&) = delete;
    task_group& operator=(const task_group&) = delete;

    void run(std::function<void()> task);
    void wait();

private:
    struct latch;
    /// Block until every task has finished; take the first error.
    std::exception_ptr join();

    std::shared_ptr<latch> latch_;
    unsigned workers_;     ///< Pool size; 1 (or built in a pool task) runs inline.
    bool counted_ = false; ///< `pool.parallel_regions` counted for this group.
    bool pooled_ = false;  ///< A task went to the pool since the last join.
};

} // namespace ssplane

#endif // SSPLANE_UTIL_PARALLEL_H
