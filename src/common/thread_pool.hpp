#pragma once
// Intra-node parallel compute runtime: a persistent worker pool with a
// static-chunked `parallel_for` primitive.
//
// The functional plane runs its MiniMPI ranks as fibers whose worker loops
// are hosted on this pool, and several ranks can reach a compute kernel at
// the same simulated instant. To keep the machine from oversubscribing
// (p ranks x t threads each), all kernels share ONE process-global pool:
// concurrent `parallel_for` calls from different ranks enqueue into the
// same worker set, and a call made from inside a pool worker (nested
// parallelism) degrades to serial execution instead of deadlocking or
// spawning more threads.
//
// Determinism contract: `parallel_for` splits [begin, end) into contiguous
// chunks that partition the range, so a body that writes only its own chunk
// produces output independent of the thread count and of chunk-to-thread
// assignment. All parallel kernels in this repo preserve their documented
// per-entry accumulation order inside a chunk, so results are bit-identical
// at any `RCS_THREADS`. Simulated timings never flow through the pool.

#include <cstddef>
#include <functional>
#include <memory>

namespace rcs::common {

class ThreadPool {
 public:
  /// A pool that runs bodies on `threads` threads total: `threads - 1`
  /// persistent workers plus the calling thread (which always participates).
  /// `threads <= 1` means fully serial (no workers spawned).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads this pool applies to one parallel_for (workers + caller).
  int threads() const;

  /// Run `body(chunk_begin, chunk_end)` over a static partition of
  /// [begin, end) into at most `threads()` contiguous chunks of at least
  /// `grain` items (sizes as equal as possible). The calling thread executes
  /// chunks alongside the workers and returns only when every chunk is done.
  /// The first exception thrown by any chunk is rethrown to the caller after
  /// completion. Safe to call concurrently from multiple threads; calls made
  /// from inside a running body execute serially (nested-parallelism cap).
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// The shared process-global pool used by all parallel kernels. Sized on
  /// first use from the `RCS_THREADS` environment variable, defaulting to
  /// std::thread::hardware_concurrency().
  static ThreadPool& global();

  /// Resize the global pool (joins the old workers, spawns new ones). Must
  /// not be called while any parallel_for is in flight; intended for tests
  /// and benchmark harnesses that sweep thread counts.
  static void set_global_threads(int threads);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Swap the calling thread's "inside a parallel_for body" flag, returning
/// the previous value. For the fiber scheduler only: a rank fiber hosted on
/// a pool worker must see top-level-thread semantics (its compute kernels'
/// parallel_for calls fan out instead of silently degrading to serial), so
/// the scheduler clears the flag when switching onto a fiber stack and
/// restores the host's value when the fiber yields. True nested parallelism
/// — a parallel_for issued from inside a running body — still runs serial.
bool exchange_in_parallel_body(bool value);

/// Convenience: parallel_for on the shared global pool. The body is passed
/// by reference, so no call allocates a std::function for its captures.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const Body& body) {
  ThreadPool::global().parallel_for(begin, end, grain, std::cref(body));
}

/// Floor on the useful work per chunk: dispatching one chunk costs a few
/// microseconds (queue mutex, cv wake, two atomics), so bodies cheaper than
/// ~20 us per chunk spend more time in the pool than in the kernel — the
/// queue-wait lane dwarfs the busy lane in the trace. Callers size `grain`
/// with grain_for_cost so small jobs degrade toward serial instead.
inline constexpr double kMinChunkNs = 20'000.0;

/// Minimum-grain heuristic: the smallest items-per-chunk such that one chunk
/// amounts to at least `min_chunk_ns` of estimated work. Feed the result to
/// parallel_for as `grain`; jobs whose whole range is below the floor then
/// run serially (no enqueue, no wake) by the existing max_chunks logic.
inline std::size_t grain_for_cost(double ns_per_item,
                                  double min_chunk_ns = kMinChunkNs) {
  if (ns_per_item <= 0.0) return 1;
  const double g = min_chunk_ns / ns_per_item;
  if (g <= 1.0) return 1;
  if (g >= 1e9) return static_cast<std::size_t>(1e9);
  return static_cast<std::size_t>(g);
}

/// grain_for_cost with cost expressed in flops, at a nominal ~20 GFLOP/s
/// single-thread rate (0.05 ns/flop) — the right order of magnitude for the
/// post-SIMD dense kernels this repo runs.
inline std::size_t grain_for_flops(double flops_per_item) {
  return grain_for_cost(flops_per_item * 0.05);
}

}  // namespace rcs::common
