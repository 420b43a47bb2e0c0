#include "obs/metrics.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace rcs::obs {

namespace {

/// Relaxed floating-point accumulate via CAS (std::atomic<double>::fetch_add
/// is C++20 but not implemented lock-free everywhere; the CAS loop is).
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

int bucket_index(double v) {
  if (!(v >= 1.0)) return 0;  // also catches NaN
  const int e = std::ilogb(v) + 1;  // v in [2^(e-1), 2^e)
  return e >= Histogram::kBuckets ? Histogram::kBuckets - 1 : e;
}

}  // namespace

Histogram::Histogram()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void Histogram::record(double v) {
  counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::bucket_upper_bound(int i) {
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i);  // 2^i
}

double Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(n);
  std::uint64_t seen = 0;
  int last_nonempty = -1;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = bucket_count(i);
    if (c == 0) continue;
    last_nonempty = i;
    if (static_cast<double>(seen + c) >= target) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
      double hi = bucket_upper_bound(i);
      if (std::isinf(hi)) hi = lo * 2.0;
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(c);
      return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac);
    }
    seen += c;
  }
  // Fall-through (p > 100 or rounding past the last sample): clamp to the
  // last non-empty bucket's upper bound instead of the histogram's global
  // range, so the answer stays within the data actually recorded.
  const double lo =
      last_nonempty <= 0 ? 0.0 : std::ldexp(1.0, last_nonempty - 1);
  double hi = bucket_upper_bound(last_nonempty);
  if (std::isinf(hi)) hi = lo * 2.0;
  return hi;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* reg = new Registry();  // leaked: outlives atexit dumps
  return *reg;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (histograms_.count(name)) {
    throw std::logic_error("metric '" + name + "' exists with another kind");
  }
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name)) {
    throw std::logic_error("metric '" + name + "' exists with another kind");
  }
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::map<std::string, MetricValue> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, MetricValue> out;
  for (const auto& [name, c] : counters_) {
    MetricValue v;
    v.kind = MetricValue::Kind::Counter;
    v.value = static_cast<double>(c->value());
    out.emplace(name, v);
  }
  for (const auto& [name, h] : histograms_) {
    MetricValue v;
    v.kind = MetricValue::Kind::Histogram;
    v.count = h->count();
    v.sum = h->sum();
    v.min = h->min();
    v.max = h->max();
    v.p50 = h->percentile(50.0);
    v.p99 = h->percentile(99.0);
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t c = h->bucket_count(i);
      if (c == 0) continue;
      v.buckets.push_back(
          HistogramBucket{Histogram::bucket_upper_bound(i), c});
    }
    out.emplace(name, std::move(v));
  }
  return out;
}

void Registry::write_json(std::ostream& os) const {
  const auto snap = snapshot();
  os << "{\n";
  std::size_t i = 0;
  for (const auto& [name, v] : snap) {
    os << "  \"" << name << "\": ";
    switch (v.kind) {
      case MetricValue::Kind::Counter:
        os << "{\"type\": \"counter\", \"value\": "
           << static_cast<std::uint64_t>(v.value) << "}";
        break;
      case MetricValue::Kind::Histogram: {
        os << "{\"type\": \"histogram\", \"count\": " << v.count
           << ", \"sum\": " << v.sum << ", \"min\": " << v.min
           << ", \"max\": " << v.max << ", \"p50\": " << v.p50
           << ", \"p99\": " << v.p99 << ", \"buckets\": [";
        for (std::size_t b = 0; b < v.buckets.size(); ++b) {
          os << (b == 0 ? "" : ", ") << "{\"le\": ";
          // The unbounded last bucket has no finite upper edge; null keeps
          // the JSON parseable where "inf" would not be.
          if (std::isinf(v.buckets[b].le)) {
            os << "null";
          } else {
            os << v.buckets[b].le;
          }
          os << ", \"count\": " << v.buckets[b].count << '}';
        }
        os << "]}";
        break;
      }
    }
    os << (++i < snap.size() ? ",\n" : "\n");
  }
  os << "}\n";
}

void Registry::write_text(std::ostream& os) const {
  for (const auto& [name, v] : snapshot()) {
    switch (v.kind) {
      case MetricValue::Kind::Counter:
        os << name << " = " << static_cast<std::uint64_t>(v.value) << "\n";
        break;
      case MetricValue::Kind::Histogram:
        os << name << " count=" << v.count << " sum=" << v.sum
           << " min=" << v.min << " max=" << v.max << " p50=" << v.p50
           << " p99=" << v.p99;
        for (const HistogramBucket& b : v.buckets) {
          os << " le";
          if (std::isinf(b.le)) {
            os << "_inf";
          } else {
            os << '=' << b.le;
          }
          os << ':' << b.count;
        }
        os << "\n";
        break;
    }
  }
}

namespace {

std::atomic<bool> g_metrics_enabled{false};

void dump_metrics_at_exit() {
  const char* env = std::getenv("RCS_METRICS");
  if (env == nullptr || std::strcmp(env, "0") == 0) return;
  if (std::strcmp(env, "1") == 0 || std::strcmp(env, "stderr") == 0) {
    std::cerr << "--- rcs metrics ---\n";
    Registry::global().write_text(std::cerr);
    return;
  }
  std::ofstream out(env);
  if (out) Registry::global().write_json(out);
}

/// One-time env read; returns the initial enabled state and installs the
/// exit dump when requested.
bool init_from_env() {
  // Touch the registry first so its (leaked) storage exists before the
  // atexit handler is registered.
  Registry::global();
  const char* env = std::getenv("RCS_METRICS");
  const bool on = env != nullptr && std::strcmp(env, "0") != 0;
  if (on) std::atexit(dump_metrics_at_exit);
  g_metrics_enabled.store(on, std::memory_order_relaxed);
  return on;
}

}  // namespace

bool metrics_enabled() {
  static const bool init = init_from_env();
  (void)init;
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) {
  (void)metrics_enabled();  // force env init so the flag is not overwritten
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

}  // namespace rcs::obs
