#pragma once
// Wall-clock tracing: RAII spans collected into per-thread buffers and
// exported as Chrome trace-event JSON (open in Perfetto / chrome://tracing).
//
// Each thread that records gets its own lane ("tid") in the trace; worker
// threads of the compute pool and MiniMPI rank fibers name their lanes
// ("pool.worker 2", "rank 0") so the viewer shows who ran what, when.
//
// Hot path: recording appends one POD event to a thread-local vector — no
// locks, no allocation beyond vector growth — and is gated on
// trace_enabled(), a relaxed atomic bool initialized from RCS_TRACE:
//
//   RCS_TRACE unset        — disabled (the default)
//   RCS_TRACE=<path.json>  — enabled; Chrome trace written to <path.json>
//                            at process exit
//
// Span names and categories must be string literals (or otherwise outlive
// the process) — events store the pointers, not copies.
//
// Export may only run while no instrumented work is in flight (after
// parallel_for/World::run joins); exporting mid-flight is a data race.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace rcs::obs {

/// True when spans should be recorded (cheap relaxed load).
bool trace_enabled();

/// Programmatic override (benches/tests trace without the env variable).
void set_trace_enabled(bool enabled);

/// Nanoseconds since the process's trace epoch (steady clock).
std::int64_t trace_now_ns();

/// Name the calling thread's trace lane (e.g. "rank 3"). Creates the lane
/// if the thread has not recorded yet. When a detached lane is bound (see
/// set_current_lane), renames that lane instead.
void set_thread_lane(const std::string& name);

/// Opaque shared handle to a trace lane (see make_lane). An empty handle
/// denotes the calling thread's own default lane.
using Lane = std::shared_ptr<void>;

/// Create a detached lane named `name`, not yet bound to any thread. The
/// fiber scheduler gives each rank fiber one of these so its spans stay in
/// a stable "rank N" lane no matter which worker thread resumes it.
Lane make_lane(const std::string& name);

/// The calling thread's current lane binding: the handle installed by
/// set_current_lane, or an empty handle when the thread records into its
/// own default lane. Intended for save/restore around a fiber switch.
Lane current_lane();

/// Bind `lane` as the calling thread's recording target: subsequent spans
/// from this thread land in it. An empty handle restores the thread's own
/// default lane. A lane must be bound to at most one running thread at a
/// time (the fiber scheduler guarantees this: a fiber runs on one worker
/// at a time, and migrations synchronize through the scheduler queue).
void set_current_lane(const Lane& lane);

/// Record a completed span on the calling thread's lane. No-op when
/// tracing is disabled.
void record_span(const char* name, const char* category, std::int64_t t0_ns,
                 std::int64_t t1_ns);

/// RAII span: measures construction-to-destruction on the calling thread.
/// Near-free when tracing is disabled (one relaxed load).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name, const char* category = "app")
      : name_(name), cat_(category), active_(trace_enabled()) {
    if (active_) t0_ = trace_now_ns();
  }
  ~ScopedTimer() {
    if (active_) record_span(name_, cat_, t0_, trace_now_ns());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::int64_t t0_ = 0;
  bool active_;
};

/// RAII phase marker for the functional planes: emits a trace span (when
/// tracing) AND accumulates the phase's wall time into the counter
/// "<category>.wall.<name>_ns" (when metrics are on) — the "measured" column
/// of the drift report. The counter is resolved per construction, so use at
/// phase granularity, not in inner loops.
class PhaseSpan {
 public:
  PhaseSpan(const char* category, const char* name);
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  Counter* wall_ns_ = nullptr;
  std::int64_t t0_ = 0;
  bool trace_ = false;
};

/// Write all buffered spans as Chrome trace-event JSON. Call only when no
/// instrumented work is running.
void write_chrome_trace(std::ostream& os);

/// Streams Chrome trace-event JSON: "thread_name" metadata naming each lane,
/// then complete ("X") events. Both exporters write through it — the
/// wall-clock tracer above and sim::TraceRecorder's simulated-time export.
/// Names are JSON-escaped; times are microseconds with 15 significant digits,
/// so distinct timestamps late in a long run stay distinct.
class ChromeTraceWriter {
 public:
  /// Writes the document header.
  explicit ChromeTraceWriter(std::ostream& os);

  /// Name lane `tid`.
  void lane(int tid, std::string_view name);

  /// One event of `dur_us` microseconds starting at `ts_us` on lane `tid`.
  void event(std::string_view name, std::string_view category, double ts_us,
             double dur_us, int tid);

  /// Close the document; call once, after the last event.
  void finish();

 private:
  void next();

  std::ostream& os_;
  bool first_ = true;
};

/// write_chrome_trace to a file; returns false when the file can't open.
bool write_chrome_trace_file(const std::string& path);

/// Drop all buffered events (lanes persist).
void clear_trace();

/// Buffered event count across all lanes (for tests).
std::size_t trace_event_count();

/// Minimal JSON string escaping (quotes, backslash, control chars) shared by
/// the telemetry exporters.
std::string json_escape(std::string_view s);

}  // namespace rcs::obs
