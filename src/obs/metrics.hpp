#pragma once
// Process-wide metrics registry — the telemetry counterpart of the simulated
// RunReport. Instrumented hot paths (thread pool, gemm, MiniMPI, FPGA
// kernels) record into named Counters and Histograms; benches and apps
// snapshot the registry and export it as JSON or text.
//
// Cost model: the hot path is one relaxed atomic add per event — no locks,
// no allocation. Call sites resolve metric handles once (function-local
// static references) so the registry's name lookup (mutex + map) is paid a
// single time per site. Recording is gated on metrics_enabled(), a relaxed
// atomic bool initialized from the RCS_METRICS environment variable:
//
//   RCS_METRICS unset / "0"   — disabled (the default)
//   RCS_METRICS=1 | stderr    — enabled; text dump to stderr at exit
//   RCS_METRICS=<path>        — enabled; JSON dump to <path> at exit
//
// This library is dependency-free (not even common/) so every layer —
// including common itself — can link it without cycles.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rcs::obs {

/// Monotonically increasing event/volume count. All operations are
/// relaxed-atomic: totals are exact, ordering with other metrics is not.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Fixed log-spaced histogram: bucket i counts values in [2^(i-1), 2^i)
/// (bucket 0 takes everything below 1; the last bucket is unbounded above).
/// Units are the caller's — instrumentation here records nanoseconds.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  Histogram();

  void record(double v);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  /// Smallest / largest recorded value; 0 while the histogram is empty
  /// (exports must not leak the ±inf tracking sentinels).
  double min() const;
  double max() const;
  std::uint64_t bucket_count(int i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket i (2^i; +inf for the last bucket).
  static double bucket_upper_bound(int i);

  /// Estimated p-th percentile (0..100) from the log-spaced buckets,
  /// interpolating linearly within the containing bucket.
  double percentile(double p) const;

  void reset();

 private:
  std::atomic<std::uint64_t> counts_[kBuckets]{};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
  // Extrema track via CAS with ±inf sentinels while empty.
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// One exported histogram bucket: `count` samples at or below `le`
/// (`le` is +inf for the unbounded last bucket — emitted as null in JSON).
struct HistogramBucket {
  double le = 0.0;
  std::uint64_t count = 0;
};

/// Point-in-time copy of one metric, as produced by Registry snapshots.
struct MetricValue {
  enum class Kind { Counter, Histogram } kind = Kind::Counter;
  double value = 0.0;          // counter total
  std::uint64_t count = 0;     // histogram sample count
  double sum = 0.0;            // histogram sample sum
  double min = 0.0, max = 0.0; // histogram extrema (0 when count == 0)
  double p50 = 0.0, p99 = 0.0; // histogram percentile estimates
  /// Non-empty buckets only (the 64-slot array is mostly zeros).
  std::vector<HistogramBucket> buckets;
};

/// Named metric store. Metric objects live for the process lifetime and
/// their addresses are stable, so call sites can cache references.
class Registry {
 public:
  /// The process-global registry all instrumentation records into.
  static Registry& global();

  /// Get-or-create by name. Throws std::logic_error if the name already
  /// exists with a different kind.
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zero every registered metric (bench harnesses isolate sections).
  void reset();

  /// Copy of all metrics, ordered by name.
  std::map<std::string, MetricValue> snapshot() const;

  /// JSON object {"name": {...}, ...}, keys sorted.
  void write_json(std::ostream& os) const;
  /// Human-readable one-metric-per-line dump.
  void write_text(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// True when instrumentation should record (cheap relaxed load). Initialized
/// from RCS_METRICS on first call; when the variable requests an exit dump,
/// the first call also installs it.
bool metrics_enabled();

/// Programmatic override (benches/tests enable telemetry without the env).
void set_metrics_enabled(bool enabled);

}  // namespace rcs::obs
