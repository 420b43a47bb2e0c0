#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace rcs::obs {

namespace {

struct Event {
  const char* name;
  const char* cat;
  std::int64_t t0_ns;
  std::int64_t t1_ns;
};

struct ThreadBuffer {
  int tid = 0;
  std::string lane;
  std::vector<Event> events;
};

/// All lanes ever created. Buffers are shared_ptr so a lane outlives its
/// thread (the exporter reads after threads exit) and a rank's lane, which
/// rides its fiber from worker to worker, outlives any one of them.
struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 1;
};

TraceState& state() {
  static TraceState* s = new TraceState();  // leaked: outlives atexit writer
  return *s;
}

std::shared_ptr<ThreadBuffer> register_buffer(const std::string& lane) {
  auto b = std::make_shared<ThreadBuffer>();
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  b->tid = s.next_tid++;
  b->lane = lane.empty() ? "thread " + std::to_string(b->tid) : lane;
  s.buffers.push_back(b);
  return b;
}

/// Detached-lane binding installed by set_current_lane (fiber scheduler);
/// empty for ordinary threads, which record into their own default lane.
thread_local std::shared_ptr<ThreadBuffer> tls_bound_lane;

ThreadBuffer& this_thread_buffer() {
  if (tls_bound_lane) return *tls_bound_lane;
  thread_local std::shared_ptr<ThreadBuffer> buf = register_buffer("");
  return *buf;
}

std::atomic<bool> g_trace_enabled{false};

void write_trace_at_exit() {
  const char* env = std::getenv("RCS_TRACE");
  if (env == nullptr || env[0] == '\0') return;
  if (!write_chrome_trace_file(env)) {
    std::fprintf(stderr, "[rcs obs] cannot write RCS_TRACE file %s\n", env);
  }
}

bool init_from_env() {
  state();  // construct (leaked) storage before registering the atexit hook
  const char* env = std::getenv("RCS_TRACE");
  const bool on = env != nullptr && env[0] != '\0';
  if (on) std::atexit(write_trace_at_exit);
  g_trace_enabled.store(on, std::memory_order_relaxed);
  return on;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t epoch_ns() {
  static const std::int64_t epoch = steady_ns();
  return epoch;
}

}  // namespace

bool trace_enabled() {
  static const bool init = init_from_env();
  (void)init;
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool enabled) {
  (void)trace_enabled();  // force env init so the flag is not overwritten
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

std::int64_t trace_now_ns() { return steady_ns() - epoch_ns(); }

void set_thread_lane(const std::string& name) {
  this_thread_buffer().lane = name;
}

Lane make_lane(const std::string& name) { return register_buffer(name); }

Lane current_lane() { return tls_bound_lane; }

void set_current_lane(const Lane& lane) {
  tls_bound_lane = std::static_pointer_cast<ThreadBuffer>(lane);
}

void record_span(const char* name, const char* category, std::int64_t t0_ns,
                 std::int64_t t1_ns) {
  if (!trace_enabled()) return;
  this_thread_buffer().events.push_back(Event{name, category, t0_ns, t1_ns});
}

PhaseSpan::PhaseSpan(const char* category, const char* name)
    : name_(name), cat_(category) {
  trace_ = trace_enabled();
  if (metrics_enabled()) {
    wall_ns_ = &Registry::global().counter(std::string(category) + ".wall." +
                                          name + "_ns");
  }
  if (trace_ || wall_ns_ != nullptr) t0_ = trace_now_ns();
}

PhaseSpan::~PhaseSpan() {
  if (!trace_ && wall_ns_ == nullptr) return;
  const std::int64_t t1 = trace_now_ns();
  if (trace_) record_span(name_, cat_, t0_, t1);
  if (wall_ns_ != nullptr && t1 > t0_) {
    wall_ns_->add(static_cast<std::uint64_t>(t1 - t0_));
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
}

void ChromeTraceWriter::next() {
  if (!first_) os_ << ',';
  first_ = false;
  os_ << '\n';
}

void ChromeTraceWriter::lane(int tid, std::string_view name) {
  next();
  os_ << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
      << tid << ", \"args\": {\"name\": \"" << json_escape(name) << "\"}}";
}

void ChromeTraceWriter::event(std::string_view name, std::string_view category,
                              double ts_us, double dur_us, int tid) {
  next();
  // Strings are streamed (never through a fixed buffer — a long name must
  // not truncate mid-escape into invalid JSON); only numbers use snprintf.
  char ts[32], dur[32];
  std::snprintf(ts, sizeof(ts), "%.15g", ts_us);
  std::snprintf(dur, sizeof(dur), "%.15g", dur_us);
  os_ << "{\"name\": \"" << json_escape(name) << "\", \"cat\": \""
      << json_escape(category) << "\", \"ph\": \"X\", \"ts\": " << ts
      << ", \"dur\": " << dur << ", \"pid\": 1, \"tid\": " << tid << '}';
}

void ChromeTraceWriter::finish() { os_ << "\n]}\n"; }

void write_chrome_trace(std::ostream& os) {
  TraceState& s = state();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    buffers = s.buffers;
  }
  ChromeTraceWriter out(os);
  for (const auto& b : buffers) out.lane(b->tid, b->lane);
  for (const auto& b : buffers) {
    for (const Event& e : b->events) {
      out.event(e.name, e.cat, static_cast<double>(e.t0_ns) / 1e3,
                static_cast<double>(e.t1_ns - e.t0_ns) / 1e3, b->tid);
    }
  }
  out.finish();
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return true;
}

void clear_trace() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  for (auto& b : s.buffers) b->events.clear();
}

std::size_t trace_event_count() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::size_t n = 0;
  for (const auto& b : s.buffers) n += b->events.size();
  return n;
}

}  // namespace rcs::obs
