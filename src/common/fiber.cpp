#include "common/fiber.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

// Sanitizer detection: GCC defines __SANITIZE_*__, Clang exposes
// __has_feature. The annotations below teach each tool about the custom
// stacks; without them TSan reports bogus races across a fiber migrating
// between worker threads and ASan misattributes fake-stack frames.
#if defined(__SANITIZE_THREAD__)
#define RCS_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RCS_TSAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define RCS_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RCS_ASAN_FIBERS 1
#endif
#endif

#ifdef RCS_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif
#ifdef RCS_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace rcs::common {

namespace detail {

namespace {

/// Fiber lifecycle states. Transitions:
///   kReady -> kRunning            (worker dequeues and resumes)
///   kRunning -> kParking          (park(): published before the lock drops)
///   kParking -> kParked           (worker's post-switch CAS: park won)
///   kParking -> kWokenEarly       (wake()'s CAS: wake raced the switch;
///                                  the worker requeues instead of parking)
///   kParked -> kReady             (wake(): requeue through the scheduler)
///   kRunning -> kDone             (trampoline: task returned/threw)
enum class St : int { kReady, kRunning, kParking, kParked, kWokenEarly, kDone };

/// Per-worker-thread side of a context switch: where a yielding fiber
/// returns to, plus the sanitizer bookkeeping for the host stack.
struct WorkerContext {
  ucontext_t return_ctx;
#ifdef RCS_TSAN_FIBERS
  void* tsan = nullptr;  // the host thread's TSan "fiber" handle
#endif
#ifdef RCS_ASAN_FIBERS
  void* asan_fake = nullptr;      // fake-stack save slot across a switch-out
  const void* stack_base = nullptr;  // host thread stack (pthread attrs)
  std::size_t stack_size = 0;
#endif
};

thread_local WorkerContext tls_worker;
thread_local FiberImpl* tls_current = nullptr;

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

/// Usable stack per fiber, a whole number of pages. A PROT_NONE guard page
/// sits below every stack so overflow faults instead of corrupting a
/// neighbouring fiber.
#if defined(RCS_TSAN_FIBERS) || defined(RCS_ASAN_FIBERS)
constexpr std::size_t kStackBytes = 1024 * 1024;  // sanitizer frames are larger
#else
constexpr std::size_t kStackBytes = 256 * 1024;
#endif

#ifdef RCS_ASAN_FIBERS
void init_worker_stack_bounds(WorkerContext& wc) {
  if (wc.stack_size != 0) return;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t sz = 0;
    if (pthread_attr_getstack(&attr, &addr, &sz) == 0) {
      wc.stack_base = addr;
      wc.stack_size = sz;
    }
    pthread_attr_destroy(&attr);
  }
}
#endif

}  // namespace

struct FiberImpl {
  FiberImpl() { facade.impl_ = this; }
  Fiber facade;
  ucontext_t ctx;
  void* map_base = nullptr;   // mmap base (guard page + usable stack)
  std::size_t map_size = 0;
  void* stack_lo = nullptr;   // usable stack (above the guard page)
  std::size_t stack_size = 0;
  std::atomic<St> state{St::kReady};
  std::function<void()> body;
  std::exception_ptr error;
  FiberSchedulerImpl* sched = nullptr;
  WorkerContext* host = nullptr;  // who resumed us last (valid while running)
  obs::Lane lane;                 // fiber-owned trace lane (may be empty)
#ifdef RCS_TSAN_FIBERS
  void* tsan = nullptr;
#endif
#ifdef RCS_ASAN_FIBERS
  void* asan_fake = nullptr;
#endif
};

struct FiberSchedulerImpl {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<FiberImpl*> runq;
  int unfinished = 0;

  void enqueue(FiberImpl* f) {
    {
      std::lock_guard<std::mutex> lock(mu);
      runq.push_back(f);
    }
    cv.notify_one();
  }

  static void trampoline();
  static void switch_to_fiber(FiberImpl* f);
  static void yield_to_host(FiberImpl* f, bool done);
  void resume(FiberImpl* f);
  void worker_loop();
};

/// Entry point of every fiber (reached via makecontext). Never returns: the
/// final yield_to_host hands the stack back to the host worker for good.
void FiberSchedulerImpl::trampoline() {
  FiberImpl* f = tls_current;
#ifdef RCS_ASAN_FIBERS
  // First entry on this stack: no fake-stack frame of ours to restore yet.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  try {
    f->body();
  } catch (...) {
    f->error = std::current_exception();
  }
  f->state.store(St::kDone, std::memory_order_release);
  yield_to_host(f, /*done=*/true);
  std::abort();  // unreachable: a dead fiber is never resumed
}

/// Host-thread side: switch onto the fiber's stack, return when it yields.
/// Saves/restores this thread's pool nested-parallelism flag and trace-lane
/// binding around the switch, so the fiber runs with top-level-thread
/// semantics and the host's identity is untouched.
void FiberSchedulerImpl::switch_to_fiber(FiberImpl* f) {
  WorkerContext& wc = tls_worker;
  const bool saved_flag = exchange_in_parallel_body(false);
  obs::Lane saved_lane;
  if (f->lane) {
    saved_lane = obs::current_lane();
    obs::set_current_lane(f->lane);
  }
  f->host = &wc;
  tls_current = f;
#ifdef RCS_TSAN_FIBERS
  wc.tsan = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f->tsan, 0);
#endif
#ifdef RCS_ASAN_FIBERS
  init_worker_stack_bounds(wc);
  __sanitizer_start_switch_fiber(&wc.asan_fake, f->stack_lo, f->stack_size);
#endif
  swapcontext(&wc.return_ctx, &f->ctx);
#ifdef RCS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(wc.asan_fake, nullptr, nullptr);
#endif
  tls_current = nullptr;
  if (f->lane) obs::set_current_lane(saved_lane);
  exchange_in_parallel_body(saved_flag);
}

/// Fiber side: switch back to the host that resumed us. On a park this
/// returns later — possibly on a different worker thread — when the fiber
/// is rescheduled; on `done` it never returns.
void FiberSchedulerImpl::yield_to_host(FiberImpl* f, bool done) {
  (void)done;  // only the sanitizer annotations distinguish a final switch
  WorkerContext* wc = f->host;
#ifdef RCS_TSAN_FIBERS
  __tsan_switch_to_fiber(wc->tsan, 0);
#endif
#ifdef RCS_ASAN_FIBERS
  __sanitizer_start_switch_fiber(done ? nullptr : &f->asan_fake,
                                 wc->stack_base, wc->stack_size);
#endif
  swapcontext(&f->ctx, &wc->return_ctx);
#ifdef RCS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(f->asan_fake, nullptr, nullptr);
#endif
}

void FiberSchedulerImpl::resume(FiberImpl* f) {
  f->state.store(St::kRunning, std::memory_order_relaxed);
  switch_to_fiber(f);
  St s = f->state.load(std::memory_order_acquire);
  if (s == St::kDone) {
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      last = (--unfinished == 0);
    }
    if (last) cv.notify_all();  // wake every idle worker loop to exit
    return;
  }
  if (s == St::kParking) {
    St expected = St::kParking;
    if (f->state.compare_exchange_strong(expected, St::kParked,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return;  // parked; a future wake() will requeue it
    }
    s = expected;
  }
  // A wake raced the context switch (kParking -> kWokenEarly): the waker
  // left requeueing to us, since only the host side knows when the fiber's
  // stack is safely switched away from.
  RCS_CHECK(s == St::kWokenEarly);
  f->state.store(St::kReady, std::memory_order_relaxed);
  enqueue(f);
}

void FiberSchedulerImpl::worker_loop() {
  std::unique_lock<std::mutex> lock(mu);
  for (;;) {
    cv.wait(lock, [&] { return unfinished == 0 || !runq.empty(); });
    if (runq.empty()) return;  // unfinished == 0: all fibers retired
    FiberImpl* f = runq.front();
    runq.pop_front();
    lock.unlock();
    resume(f);
    lock.lock();
  }
}

}  // namespace detail

using detail::FiberImpl;
using detail::FiberSchedulerImpl;
using detail::St;

Fiber* Fiber::current() {
  FiberImpl* f = detail::tls_current;
  return f != nullptr ? &f->facade : nullptr;
}

void Fiber::park(std::unique_lock<std::mutex>& lock) {
  FiberImpl* f = detail::tls_current;
  RCS_CHECK_MSG(f != nullptr, "Fiber::park called off-fiber");
  RCS_CHECK_MSG(lock.owns_lock(), "Fiber::park requires a held lock");
  // Publish intent-to-park before dropping the lock: any waker that finds
  // our registration (it must hold `lock`'s mutex to do so) then observes
  // kParking at the earliest, so its wake() cannot be lost.
  f->state.store(St::kParking, std::memory_order_release);
  lock.unlock();
  FiberSchedulerImpl::yield_to_host(f, /*done=*/false);
  lock.lock();
}

void Fiber::wake() {
  FiberImpl* f = impl_;
  for (;;) {
    St s = f->state.load(std::memory_order_acquire);
    if (s == St::kParked) {
      if (f->state.compare_exchange_weak(s, St::kReady,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        f->sched->enqueue(f);
        return;
      }
    } else if (s == St::kParking) {
      if (f->state.compare_exchange_weak(s, St::kWokenEarly,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        return;  // host-side CAS loses and requeues for us
      }
    } else {
      // kReady / kRunning / kWokenEarly: a wake is already in flight for
      // the current registration — one registration, one wake.
      return;
    }
  }
}

namespace {

detail::FiberImpl* make_fiber() {
  auto f = std::make_unique<FiberImpl>();
  const std::size_t ps = detail::page_size();
  f->map_size = detail::kStackBytes + ps;  // + guard page
  void* base = mmap(nullptr, f->map_size, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  RCS_CHECK_MSG(base != MAP_FAILED, "fiber stack mmap of " << f->map_size
                                                           << " bytes failed");
  f->map_base = base;
  RCS_CHECK(mprotect(base, ps, PROT_NONE) == 0);
  f->stack_lo = static_cast<char*>(base) + ps;
  f->stack_size = f->map_size - ps;
#ifdef RCS_TSAN_FIBERS
  f->tsan = __tsan_create_fiber(0);
#endif
  RCS_CHECK(getcontext(&f->ctx) == 0);
  f->ctx.uc_stack.ss_sp = f->stack_lo;
  f->ctx.uc_stack.ss_size = f->stack_size;
  f->ctx.uc_link = nullptr;  // fibers exit via yield_to_host, never uc_link
  makecontext(&f->ctx, &FiberSchedulerImpl::trampoline, 0);
  return f.release();
}

void destroy_fiber(detail::FiberImpl* f) {
#ifdef RCS_TSAN_FIBERS
  __tsan_destroy_fiber(f->tsan);
#endif
  munmap(f->map_base, f->map_size);
  delete f;
}

}  // namespace

void FiberScheduler::run(int n, const Options& opt,
                         const std::function<void(int)>& task) {
  RCS_CHECK_MSG(n >= 0, "negative fiber count");
  if (n == 0) return;
  FiberSchedulerImpl impl;
  std::vector<FiberImpl*> fibers;
  fibers.reserve(static_cast<std::size_t>(n));
  const bool lanes = opt.lane_name && obs::trace_enabled();
  for (int i = 0; i < n; ++i) {
    FiberImpl* f = make_fiber();
    f->sched = &impl;
    f->body = [&task, i] { task(i); };
    if (lanes) f->lane = obs::make_lane(opt.lane_name(i));
    fibers.push_back(f);
  }
  impl.unfinished = n;
  for (FiberImpl* f : fibers) impl.runq.push_back(f);

  // Host the worker loops on the shared pool: one loop per slot, the
  // calling thread always runs at least one. Loops beyond the pool's
  // actual thread count simply run back-to-back on whoever claims them
  // (the first loop on a thread exits only when all fibers are done, so
  // trailing loops return immediately).
  const int workers = std::max(1, opt.workers);
  ThreadPool::global().parallel_for(
      0, static_cast<std::size_t>(workers), 1,
      [&impl](std::size_t w0, std::size_t w1) {
        for (std::size_t w = w0; w < w1; ++w) impl.worker_loop();
      });

  std::exception_ptr first;
  for (FiberImpl* f : fibers) {
    RCS_CHECK(f->state.load(std::memory_order_acquire) == St::kDone);
    if (!first && f->error) first = f->error;
    destroy_fiber(f);
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace rcs::common
