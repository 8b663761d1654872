// Shared-memory parallelism for the evaluation engine.
//
// A process-wide thread pool serves `parallel_for`/`parallel_map`, the
// primitives the radiation sweeps, the greedy designer and the evaluators
// route through. Design constraints, in order:
//   * deterministic results — chunk boundaries never depend on the worker
//     count, so chunk-indexed reductions are bit-reproducible on any
//     machine (a laptop and a 128-core box produce identical figures);
//   * safe nesting — a body that itself calls parallel_for degrades to the
//     serial path instead of deadlocking the pool;
//   * zero overhead when it cannot help — one hardware thread (or tiny n)
//     runs inline on the caller with no queue traffic.
#ifndef SSPLANE_UTIL_PARALLEL_H
#define SSPLANE_UTIL_PARALLEL_H

#include <cstddef>
#include <functional>
#include <vector>

namespace ssplane {

/// Worker threads the global pool will use (always >= 1). Resolution order:
/// last `set_thread_count` value, the SSPLANE_THREADS environment variable,
/// then hardware concurrency.
unsigned thread_count() noexcept;

/// Override the pool size; `n == 0` restores automatic sizing. Takes effect
/// on the next parallel call. Not safe to call concurrently with an
/// in-flight parallel_for.
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

} // namespace ssplane

#endif // SSPLANE_UTIL_PARALLEL_H
