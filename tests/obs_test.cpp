// Tests for the telemetry layer: metrics registry semantics and concurrency,
// wall-clock trace export, the simulated-trace exporters, provenance, drift
// reports, and the telemetry-on-vs-off determinism guard.

#include <cmath>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "core/drift.hpp"
#include "core/lu_functional.hpp"
#include "core/predict.hpp"
#include "linalg/generate.hpp"
#include "net/minimpi.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "sim/trace.hpp"

namespace core = rcs::core;
namespace common = rcs::common;
namespace la = rcs::linalg;
namespace obs = rcs::obs;

namespace {

/// Saves and restores the global telemetry switches around a test.
class TelemetryGuard {
 public:
  TelemetryGuard()
      : metrics_(obs::metrics_enabled()), trace_(obs::trace_enabled()) {}
  ~TelemetryGuard() {
    obs::set_metrics_enabled(metrics_);
    obs::set_trace_enabled(trace_);
  }

 private:
  bool metrics_;
  bool trace_;
};

TEST(Metrics, CounterBasics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, HistogramBucketsAndPercentiles) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 1000.0 * 1001.0 / 2.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Buckets are log-spaced powers of two: the percentile estimate is coarse
  // but must bracket the true value's bucket.
  const double p50 = h.percentile(50.0);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  const double p99 = h.percentile(99.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
}

TEST(Metrics, HistogramPercentileEdgeCases) {
  obs::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);

  // Single sample in bucket [4, 8): every percentile stays in that bucket.
  obs::Histogram one;
  one.record(5.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(one.percentile(50.0), 6.0);
  EXPECT_DOUBLE_EQ(one.percentile(100.0), 8.0);
  // Regression: p > 100 used to fall through to the histogram's global
  // upper bound (~4.6e18); it must clamp to the last non-empty bucket.
  EXPECT_DOUBLE_EQ(one.percentile(150.0), 8.0);

  // Sub-1.0 samples land in bucket 0 = [0, 1).
  obs::Histogram small;
  small.record(0.25);
  EXPECT_DOUBLE_EQ(small.percentile(0.0), 0.0);
  EXPECT_LE(small.percentile(100.0), 1.0);

  // The overflow bucket has no finite upper bound: percentiles clamp to
  // twice its lower bound instead of returning infinity.
  obs::Histogram overflow;
  overflow.record(1e300);
  overflow.record(1e301);
  const double top = std::ldexp(1.0, 63);  // 2 * the last bucket's lo
  EXPECT_DOUBLE_EQ(overflow.percentile(100.0), top);
  EXPECT_DOUBLE_EQ(overflow.percentile(150.0), top);
  EXPECT_FALSE(std::isinf(overflow.percentile(99.0)));
}

TEST(Metrics, HistogramMinMaxTrackExtrema) {
  obs::Histogram h;
  // Zero-count guard: an empty histogram must export zeros, not the ±inf
  // tracking sentinels.
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);

  h.record(7.0);
  EXPECT_DOUBLE_EQ(h.min(), 7.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
  h.record(0.25);
  h.record(300.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 300.0);

  h.reset();
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.record(2.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
}

TEST(Metrics, HistogramExportCarriesBucketsAndExtrema) {
  auto& reg = obs::Registry::global();
  obs::Histogram& h = reg.histogram("obs_test.export_hist");
  h.reset();
  h.record(3.0);    // bucket (2, 4]
  h.record(3.5);    // same bucket
  h.record(100.0);  // bucket (64, 128]
  h.record(1e300);  // unbounded overflow bucket

  const auto snap = reg.snapshot();
  const auto it = snap.find("obs_test.export_hist");
  ASSERT_NE(it, snap.end());
  const obs::MetricValue& v = it->second;
  EXPECT_EQ(v.count, 4u);
  EXPECT_DOUBLE_EQ(v.min, 3.0);
  EXPECT_DOUBLE_EQ(v.max, 1e300);
  ASSERT_EQ(v.buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(v.buckets[0].le, 4.0);
  EXPECT_EQ(v.buckets[0].count, 2u);
  EXPECT_DOUBLE_EQ(v.buckets[1].le, 128.0);
  EXPECT_EQ(v.buckets[1].count, 1u);
  EXPECT_TRUE(std::isinf(v.buckets[2].le));
  EXPECT_EQ(v.buckets[2].count, 1u);
  std::uint64_t bucket_total = 0;
  for (const obs::HistogramBucket& b : v.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, v.count);

  std::ostringstream json;
  reg.write_json(json);
  const std::string js = json.str();
  EXPECT_NE(js.find("\"min\": 3"), std::string::npos);
  EXPECT_NE(js.find("\"max\": 1e+300"), std::string::npos);
  EXPECT_NE(js.find("{\"le\": 4, \"count\": 2}"), std::string::npos);
  // The unbounded last bucket exports "le": null — "inf" is not JSON.
  EXPECT_NE(js.find("{\"le\": null, \"count\": 1}"), std::string::npos);
  EXPECT_EQ(js.find("inf"), std::string::npos);

  std::ostringstream text;
  reg.write_text(text);
  const std::string tx = text.str();
  EXPECT_NE(tx.find("min=3"), std::string::npos);
  EXPECT_NE(tx.find("max=1e+300"), std::string::npos);
  EXPECT_NE(tx.find("le=4:2"), std::string::npos);
  EXPECT_NE(tx.find("le_inf:1"), std::string::npos);
  h.reset();
}

TEST(Metrics, EmptyHistogramExportsZeros) {
  auto& reg = obs::Registry::global();
  reg.histogram("obs_test.empty_hist").reset();
  const auto snap = reg.snapshot();
  const auto it = snap.find("obs_test.empty_hist");
  ASSERT_NE(it, snap.end());
  EXPECT_EQ(it->second.count, 0u);
  EXPECT_DOUBLE_EQ(it->second.min, 0.0);
  EXPECT_DOUBLE_EQ(it->second.max, 0.0);
  EXPECT_TRUE(it->second.buckets.empty());
  std::ostringstream json;
  reg.write_json(json);
  EXPECT_NE(json.str().find("\"buckets\": []"), std::string::npos);
}

TEST(Metrics, RegistryReturnsStableInstancesAndRejectsKindCollisions) {
  auto& reg = obs::Registry::global();
  obs::Counter& a = reg.counter("obs_test.stable");
  obs::Counter& b = reg.counter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(reg.histogram("obs_test.stable"), std::logic_error);
}

TEST(Metrics, PoolHammeredCountersAreExact) {
  auto& reg = obs::Registry::global();
  obs::Counter& c = reg.counter("obs_test.hammer");
  obs::Histogram& h = reg.histogram("obs_test.hammer_hist");
  c.reset();
  h.reset();

  constexpr std::size_t kItems = 200000;
  common::ThreadPool::set_global_threads(8);
  common::parallel_for(0, kItems, 1, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      c.add(1);
      h.record(static_cast<double>(i % 64 + 1));
    }
  });
  common::ThreadPool::set_global_threads(1);

  EXPECT_EQ(c.value(), kItems);
  EXPECT_EQ(h.count(), kItems);
  double expected_sum = 0.0;
  for (std::size_t i = 0; i < kItems; ++i) {
    expected_sum += static_cast<double>(i % 64 + 1);
  }
  EXPECT_DOUBLE_EQ(h.sum(), expected_sum);
}

TEST(Metrics, SnapshotAndExports) {
  auto& reg = obs::Registry::global();
  reg.counter("obs_test.snap").reset();
  reg.counter("obs_test.snap").add(5);

  const auto snap = reg.snapshot();
  const auto it = snap.find("obs_test.snap");
  ASSERT_NE(it, snap.end());
  EXPECT_DOUBLE_EQ(it->second.value, 5.0);

  std::ostringstream json;
  reg.write_json(json);
  EXPECT_NE(json.str().find("\"obs_test.snap\""), std::string::npos);

  std::ostringstream text;
  reg.write_text(text);
  EXPECT_NE(text.str().find("obs_test.snap"), std::string::npos);
}

TEST(Trace, ChromeJsonIsWellFormed) {
  TelemetryGuard guard;
  obs::set_trace_enabled(true);
  obs::clear_trace();
  obs::set_thread_lane("obs_test main");
  { obs::ScopedTimer t("unit \"quoted\"", "test"); }
  { obs::ScopedTimer t("second", "test"); }
  obs::set_trace_enabled(false);

  EXPECT_GE(obs::trace_event_count(), 2u);
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string s = os.str();
  EXPECT_EQ(s.find("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["), 0u);
  EXPECT_NE(s.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(s.find("obs_test main"), std::string::npos);
  EXPECT_NE(s.find("unit \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"X\""), std::string::npos);
  // Balanced braces/brackets (no JSON parser in the test deps; structural
  // balance plus the exact prefix is a solid smoke check).
  long braces = 0, brackets = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    if (in_str) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_str = false;
      continue;
    }
    if (ch == '"') in_str = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  obs::clear_trace();
}

TEST(Trace, JsonEscape) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("line\nbreak"), "line\\nbreak");
}

/// Structural JSON balance check (brace/bracket depth outside strings, with
/// escape handling) — the test deps have no JSON parser, and an exporter
/// that truncates mid-escape breaks exactly this.
bool json_balanced(const std::string& s) {
  long braces = 0, brackets = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    if (in_str) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_str = false;
      continue;
    }
    if (ch == '"') in_str = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_str;
}

TEST(Trace, ChromeTraceSurvivesLongAndHostileNames) {
  TelemetryGuard guard;
  obs::set_trace_enabled(true);
  obs::clear_trace();
  // Regression: the exporter used to snprintf whole events into a 256-byte
  // buffer, so a long escaped name truncated mid-escape into invalid JSON.
  static std::string long_name;
  long_name = "hostile \"name\" with \\ and \n controls ";
  for (int i = 0; i < 40; ++i) long_name += "padding-" + std::to_string(i);
  static std::string long_lane(400, 'L');
  obs::set_thread_lane(long_lane);
  obs::record_span(long_name.c_str(), "test", 0, 1000);
  obs::set_trace_enabled(false);

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string s = os.str();
  EXPECT_TRUE(json_balanced(s)) << s.substr(0, 400);
  // The full escaped name must be present, not a truncated prefix.
  EXPECT_NE(s.find(obs::json_escape(long_name)), std::string::npos);
  EXPECT_NE(s.find(long_lane), std::string::npos);
  EXPECT_NE(s.find("padding-39"), std::string::npos);
  obs::clear_trace();
  obs::set_thread_lane("obs_test main");
}

/// Extract the integer after the first `"tid": ` that follows `anchor`.
long tid_after(const std::string& s, const std::string& anchor) {
  const std::size_t at = s.find(anchor);
  if (at == std::string::npos) return -1;
  const std::size_t tid = s.find("\"tid\": ", at);
  if (tid == std::string::npos) return -1;
  return std::strtol(s.c_str() + tid + 7, nullptr, 10);
}

/// Extract the tid of the thread_name metadata event naming `lane`.
long lane_tid(const std::string& s, const std::string& lane) {
  const std::string anchor = "\"args\": {\"name\": \"" + lane + "\"}";
  const std::size_t at = s.find(anchor);
  if (at == std::string::npos) return -1;
  const std::size_t tid = s.rfind("\"tid\": ", at);
  if (tid == std::string::npos) return -1;
  return std::strtol(s.c_str() + tid + 7, nullptr, 10);
}

// Regression: trace lanes used to be pinned to OS threads
// (set_thread_lane), so two ranks multiplexed onto one fiber worker wrote
// into a single shared lane. Lane identity now lives on the rank context
// (saved/restored on every fiber switch): with p=2 ranks forced onto ONE
// worker loop, each rank's span must land in its own "rank N" lane, on
// distinct tids, even though both executed on the same OS thread.
TEST(Trace, FiberRanksSharingAWorkerKeepDistinctLanes) {
  TelemetryGuard guard;
  obs::set_trace_enabled(true);
  obs::clear_trace();

  rcs::net::NetworkParams np;
  np.bytes_per_s = 1e9;
  np.latency_s = 0.0;
  rcs::net::World world(2, np);
  world.set_max_workers(1);  // both ranks share a single worker loop
  world.run([](rcs::net::Comm& comm) {
    if (comm.rank() == 0) {
      // Park first (recv blocks), so the worker switches to rank 1 and
      // back — the span below is recorded after a lane save/restore.
      comm.recv(1, 1);
      obs::record_span("probe rank 0", "test", 0, 10);
      comm.send_value(1, 2, 1);
    } else {
      obs::record_span("probe rank 1", "test", 0, 10);
      comm.send_value(0, 1, 1);
      comm.recv(0, 2);
    }
  });
  obs::set_trace_enabled(false);

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string s = os.str();
  EXPECT_TRUE(json_balanced(s)) << s.substr(0, 400);
  const long lane0 = lane_tid(s, "rank 0");
  const long lane1 = lane_tid(s, "rank 1");
  ASSERT_GE(lane0, 0) << "missing lane metadata for rank 0";
  ASSERT_GE(lane1, 0) << "missing lane metadata for rank 1";
  EXPECT_NE(lane0, lane1);
  EXPECT_EQ(tid_after(s, "\"name\": \"probe rank 0\""), lane0);
  EXPECT_EQ(tid_after(s, "\"name\": \"probe rank 1\""), lane1);
  obs::clear_trace();
}

TEST(SimTrace, ChromeJsonEscapesHostileLabels) {
  rcs::sim::TraceRecorder rec(true);
  std::string label = "wave \"0\" back\\slash\nnewline\ttab ";
  label.append(300, 'x');  // well past any fixed formatting buffer
  rec.add("node0.cpu", 0.0, 1.0, label);
  rec.add("node0.\"odd\".resource", 1.0, 2.0, "plain");

  std::ostringstream os;
  rec.write_chrome_json(os);
  const std::string s = os.str();
  EXPECT_TRUE(json_balanced(s)) << s.substr(0, 400);
  EXPECT_NE(s.find(obs::json_escape(label)), std::string::npos);
  EXPECT_NE(s.find("node0.\\\"odd\\\".resource"), std::string::npos);
  EXPECT_EQ(s.find('\n', 0), s.find("\n{"));  // no raw newline inside strings
}

TEST(SimTrace, ChromeJsonKeepsTimestampPrecision) {
  rcs::sim::TraceRecorder rec(true);
  // Distinct microsecond-scale events late in a long run: default 6-digit
  // stream precision would collapse these to the same "ts".
  rec.add("node0.cpu", 123.4567891, 123.4567892, "a");
  rec.add("node0.cpu", 123.4567893, 123.4567894, "b");
  std::ostringstream os;
  rec.write_chrome_json(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("123456789.1"), std::string::npos);
  EXPECT_NE(s.find("123456789.3"), std::string::npos);
  // The recorder restores the stream's precision afterwards.
  EXPECT_EQ(os.precision(), std::ostringstream().precision());
}

TEST(SimTrace, CommEventsRecordedMergedAndCleared) {
  rcs::sim::TraceRecorder rec(true);
  rcs::sim::CommEvent ev;
  ev.kind = rcs::sim::CommEvent::Kind::Send;
  ev.rank = 0;
  ev.peer = 1;
  ev.t0 = 1.0;
  ev.t1 = 2.0;
  ev.depart = 1.0;
  ev.arrival = 2.0;
  ev.bytes = 64;
  ev.phase = rec.intern("send");
  rec.add_comm(ev);
  ASSERT_EQ(rec.comm_events().size(), 1u);
  EXPECT_EQ(rec.comm_events()[0].peer, 1);

  // The other recorder's ids mean nothing here: merging remaps them.
  rcs::sim::TraceRecorder other(true);
  ev.rank = 1;
  ev.kind = rcs::sim::CommEvent::Kind::Recv;
  ev.phase = other.intern("recv");
  other.add_comm(ev);
  ev.phase = other.intern("send");
  other.add_comm(ev);
  rec.merge_from(std::span(&other, 1));
  ASSERT_EQ(rec.comm_events().size(), 3u);
  EXPECT_EQ(rec.name(rec.comm_events()[1].phase), "recv");
  EXPECT_EQ(rec.comm_events()[2].phase, rec.comm_events()[0].phase);

  // Disabled recorders drop comm events like they drop spans.
  rcs::sim::TraceRecorder off(false);
  off.add_comm(ev);
  EXPECT_TRUE(off.comm_events().empty());

  rec.clear();
  EXPECT_TRUE(rec.comm_events().empty());
  EXPECT_TRUE(rec.spans().empty());
}

TEST(Trace, PhaseSpanAccumulatesWallCounter) {
  TelemetryGuard guard;
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::Registry::global().counter("test.wall.spin_ns");
  const std::uint64_t before = c.value();
  {
    obs::PhaseSpan span("test", "spin");
    // Burn a little real time so the counter must move.
    volatile double x = 0.0;
    for (int i = 0; i < 100000; ++i) {
      x = x + std::sqrt(static_cast<double>(i));
    }
  }
  EXPECT_GT(c.value(), before);
}

TEST(SimTrace, CsvEscapesSeparatorsAndQuotes) {
  rcs::sim::TraceRecorder rec(true);
  rec.add("node0.cpu", 0.0, 1.0, "plain");
  rec.add("net.0->1", 1.0, 2.0, "bcast D_tt, wave \"0\"");
  rec.add("node1.cpu", 2.0, 3.0, "multi\nline");
  std::ostringstream os;
  rec.write_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("resource,start,end,label"), std::string::npos);
  EXPECT_NE(s.find("\"bcast D_tt, wave \"\"0\"\"\""), std::string::npos);
  EXPECT_NE(s.find("\"multi\nline\""), std::string::npos);
  EXPECT_NE(s.find("node0.cpu,0,1,plain"), std::string::npos);
}

TEST(SimTrace, BusyByLabelAndChromeExport) {
  rcs::sim::TraceRecorder rec(true);
  rec.add("node0.cpu", 0.0, 1.0, "opMM");
  rec.add("node0.fpga", 0.5, 2.5, "opMM");
  rec.add("node1.cpu", 0.0, 0.25, "opMS");
  const auto busy = rec.busy_by_label();
  EXPECT_DOUBLE_EQ(busy.at("opMM"), 3.0);
  EXPECT_DOUBLE_EQ(busy.at("opMS"), 0.25);

  std::ostringstream os;
  rec.write_chrome_json(os);
  const std::string s = os.str();
  EXPECT_EQ(s.find("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["), 0u);
  EXPECT_NE(s.find("node0.fpga"), std::string::npos);
  EXPECT_NE(s.find("\"cat\": \"sim\""), std::string::npos);
}

TEST(Provenance, CollectsNonEmptyFields) {
  const obs::Provenance p = obs::Provenance::collect();
  EXPECT_FALSE(p.git_sha.empty());
  EXPECT_FALSE(p.compiler.empty());
  EXPECT_FALSE(p.hostname.empty());
  std::ostringstream os;
  p.write_json(os);
  EXPECT_NE(os.str().find("\"git_sha\""), std::string::npos);
  EXPECT_NE(os.str().find("\"compiler\""), std::string::npos);
}

core::LuConfig small_lu_cfg() {
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  return cfg;
}

core::SystemParams xd1_p3() {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = 3;
  return sys;
}

TEST(Determinism, TelemetryOnVsOffIsByteIdentical) {
  TelemetryGuard guard;
  const la::Matrix a = la::diagonally_dominant(64, 99);
  const core::LuConfig cfg = small_lu_cfg();

  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  const auto off = core::lu_functional(xd1_p3(), cfg, a);

  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  const auto on = core::lu_functional(xd1_p3(), cfg, a);
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(false);

  EXPECT_EQ(on.run.seconds, off.run.seconds);
  EXPECT_EQ(on.run.bytes_on_network, off.run.bytes_on_network);
  EXPECT_EQ(on.run.cpu_busy_seconds, off.run.cpu_busy_seconds);
  EXPECT_EQ(on.run.fpga_busy_seconds, off.run.fpga_busy_seconds);
  EXPECT_TRUE(la::bit_equal(on.factored.view(), off.factored.view()));
  obs::clear_trace();
}

TEST(Drift, LuReportLinesUpModelSimulationAndWallClock) {
  TelemetryGuard guard;
  const la::Matrix a = la::diagonally_dominant(64, 7);
  const core::DriftReport rep =
      core::lu_drift_report(xd1_p3(), small_lu_cfg(), a);

  ASSERT_EQ(rep.phases.size(), 5u);
  EXPECT_GT(rep.predicted_latency_s, 0.0);
  EXPECT_GT(rep.simulated_makespan_s, 0.0);
  EXPECT_GT(rep.measured_wall_s, 0.0);
  EXPECT_FALSE(rep.utilization.empty());
  for (const auto& ph : rep.phases) {
    EXPECT_GT(ph.predicted_s, 0.0) << ph.phase;
    EXPECT_GT(ph.simulated_s, 0.0) << ph.phase;
    EXPECT_GT(ph.measured_s, 0.0) << ph.phase;
    // Predicted and simulated share the machine model; per-phase busy time
    // should agree tightly for LU (the schedule follows the model).
    EXPECT_LT(ph.drift_simulated(), 0.05) << ph.phase;
  }

  // The printed report carries the span utilization of every resource.
  std::ostringstream os;
  rep.print(os);
  EXPECT_NE(os.str().find(rep.design), std::string::npos);
  for (const auto& [resource, u] : rep.utilization) {
    EXPECT_NE(os.str().find(resource), std::string::npos) << resource;
    EXPECT_LE(u, 1.0) << resource;
  }
}

TEST(Predict, LuPhaseAggregatesMatchWholeModelFlops) {
  // The per-phase CPU+FPGA aggregates and the critical-path prediction are
  // views of one model; the phase sum must be >= the latency (resource-
  // seconds across p ranks can't beat the critical path).
  const auto sys = xd1_p3();
  const auto cfg = small_lu_cfg();
  const auto phases = core::predict_lu_phase_seconds(sys, cfg);
  double total = 0.0;
  for (const auto& [name, secs] : phases) total += secs;
  const core::Prediction pr = core::predict_lu(sys, cfg);
  EXPECT_GT(total, 0.0);
  EXPECT_GE(total, pr.latency_seconds() * 0.99);
}

}  // namespace
