#pragma once
// Cooperative stackful fibers for the MiniMPI rank scheduler.
//
// A Fiber is a resumable user-level context (ucontext/makecontext) with its
// own mmap'd, guard-paged stack of 256 KiB (1 MiB under ASan/TSan, whose
// instrumentation needs more frame space). FiberScheduler::run multiplexes
// n fiber tasks over a small fixed set of cooperative worker loops hosted
// on the process-global common::ThreadPool, so a p=1024 MiniMPI world
// needs p stacks but only a handful of OS threads.
//
// Blocking protocol: a task that must wait registers itself with whoever
// will wake it (e.g. a mailbox waiter list) *under that structure's mutex*,
// then calls Fiber::park(lock). park atomically (w.r.t. Fiber::wake)
// releases the lock, suspends the fiber, and re-acquires the lock when a
// wake reschedules it — the fiber-world analogue of
// condition_variable::wait. One registration earns exactly one wake; a
// fiber that must keep waiting re-registers, exactly like re-entering
// cv.wait in a predicate loop.
//
// The park/wake race (waker fires between the parker's unlock and its
// context switch) is closed by an atomic state machine, not by timing:
// park publishes kParking before unlocking, the waker CASes
// kParking -> kWokenEarly (the scheduler then requeues immediately instead
// of parking) or kParked -> kReady (requeue now); the scheduler's
// post-switch CAS kParking -> kParked decides which side won.
//
// Worker-loop hosting: run() drives the loops through one
// ThreadPool::parallel_for(0, workers, ...) call, so scheduler concurrency
// comes from the same pool the compute kernels use and the caller thread
// always participates (a 1-thread pool degrades to a single worker loop
// running every fiber — still correct, fully serial). Fiber swaps
// save/restore the pool's nested-parallelism flag and the obs trace-lane
// binding, so code on a fiber sees a top-level thread: its parallel_for
// calls fan out and its spans land in the fiber's own lane.
//
// Sanitizer support: stack switches are annotated for TSan and ASan
// (__tsan_switch_to_fiber / __sanitizer_start_switch_fiber) when the
// corresponding sanitizer is compiled in, so RCS_SANITIZE=thread|address
// builds understand the custom stacks.

#include <functional>
#include <mutex>
#include <string>

namespace rcs::common {

namespace detail {
struct FiberImpl;
struct FiberSchedulerImpl;
}  // namespace detail

/// Handle to the fiber currently executing on this thread (if any). Only
/// the two scheduling primitives below are public; fibers are created and
/// destroyed by FiberScheduler.
class Fiber {
 public:
  /// The fiber running on the calling thread, or nullptr when the caller is
  /// an ordinary thread. Cheap (one thread-local load) — blocking sites use
  /// it to register the fiber they are about to park.
  static Fiber* current();

  /// Suspend the current fiber until wake(). `lock` must be held; it is
  /// released before the suspension becomes visible to wakers holding the
  /// same mutex and re-acquired before park returns. The caller must have
  /// registered this fiber with its waker under `lock` first (see file
  /// comment for the protocol).
  static void park(std::unique_lock<std::mutex>& lock);

  /// Make a parked (or just-parking) fiber runnable again. Each park
  /// consumes exactly one wake; extra wakes on a running/ready fiber are
  /// no-ops. Safe to call from any thread, but never from a context that
  /// holds the scheduler's own queue lock (callers hold only their own
  /// structure's mutex, or none).
  void wake();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

 private:
  friend struct detail::FiberImpl;
  friend struct detail::FiberSchedulerImpl;
  Fiber() = default;
  ~Fiber() = default;
  detail::FiberImpl* impl_ = nullptr;
};

/// Runs n tasks as fibers over a fixed set of cooperative worker loops.
class FiberScheduler {
 public:
  struct Options {
    /// Worker loops to host on the global ThreadPool. Effective concurrency
    /// is min(workers, pool threads); extra loops just drain and exit.
    int workers = 1;
    /// Optional per-task obs trace-lane name (e.g. "rank 3"). When set and
    /// tracing is enabled, each fiber records into its own lane regardless
    /// of which worker thread resumes it.
    std::function<std::string(int)> lane_name;
  };

  /// Run task(0..n-1) to completion, each on its own fiber. Returns when
  /// every fiber has finished; rethrows the first uncaught task exception
  /// (after all fibers finish — a throwing task does not cancel the rest).
  static void run(int n, const Options& opt,
                  const std::function<void(int)>& task);
};

}  // namespace rcs::common
