// Tests for the simulation core: resource timelines, bandwidth links, and
// trace recording.

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace sim = rcs::sim;

namespace {

TEST(Timeline, SerializesWork) {
  sim::Timeline tl;
  EXPECT_DOUBLE_EQ(tl.reserve(0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(tl.reserve(1.0, 3.0), 5.0);  // queued behind first job
  EXPECT_DOUBLE_EQ(tl.reserve(10.0, 1.0), 11.0);  // idle gap honoured
  EXPECT_DOUBLE_EQ(tl.busy_total(), 6.0);
  EXPECT_DOUBLE_EQ(tl.free_at(), 11.0);
}

TEST(Timeline, ZeroDurationAllowedNegativeRejected) {
  sim::Timeline tl;
  EXPECT_DOUBLE_EQ(tl.reserve(1.0, 0.0), 1.0);
  EXPECT_THROW(tl.reserve(0.0, -1.0), rcs::Error);
}

TEST(Timeline, ResetClearsState) {
  sim::Timeline tl;
  tl.reserve(0.0, 5.0);
  tl.reset();
  EXPECT_DOUBLE_EQ(tl.free_at(), 0.0);
  EXPECT_DOUBLE_EQ(tl.busy_total(), 0.0);
}

TEST(BandwidthLink, TransferTimeIsLatencyPlusSerialization) {
  sim::BandwidthLink link(1e9, 1e-6);
  EXPECT_DOUBLE_EQ(link.transfer_time(0), 1e-6);
  EXPECT_DOUBLE_EQ(link.transfer_time(1'000'000), 1e-6 + 1e-3);
}

TEST(BandwidthLink, TransfersSerialize) {
  sim::BandwidthLink link(1e6);  // 1 MB/s
  const double t1 = link.transfer(0.0, 1'000'000);  // 1 s
  EXPECT_DOUBLE_EQ(t1, 1.0);
  const double t2 = link.transfer(0.5, 500'000);  // queued until 1.0
  EXPECT_DOUBLE_EQ(t2, 1.5);
}

TEST(BandwidthLink, RejectsNonPositiveBandwidth) {
  EXPECT_THROW(sim::BandwidthLink(0.0), rcs::Error);
  EXPECT_THROW(sim::BandwidthLink(1.0, -1.0), rcs::Error);
}

TEST(Trace, RecordsWhenEnabled) {
  sim::TraceRecorder tr(true);
  tr.add("cpu", 0.0, 1.0, "work");
  tr.add("cpu", 2.0, 3.5, "more");
  tr.add("fpga", 0.0, 4.0, "kernel");
  EXPECT_EQ(tr.spans().size(), 3u);
  auto busy = tr.busy_by_resource();
  EXPECT_DOUBLE_EQ(busy["cpu"], 2.5);
  EXPECT_DOUBLE_EQ(busy["fpga"], 4.0);
  auto util = tr.utilization(5.0);
  EXPECT_DOUBLE_EQ(util["cpu"], 0.5);
  EXPECT_DOUBLE_EQ(util["fpga"], 0.8);
}

TEST(Trace, NamesAreInternedOnceAndMergeRemapsIds) {
  sim::TraceRecorder a(true);
  a.add("cpu", 0.0, 1.0, "work");
  a.add("fpga", 0.0, 2.0, "work");
  ASSERT_EQ(a.names().size(), 3u);  // cpu, work, fpga
  EXPECT_EQ(a.spans()[0].label, a.spans()[1].label);
  EXPECT_EQ(a.intern("fpga"), a.spans()[1].resource);
  EXPECT_EQ(a.name(a.spans()[1].resource), "fpga");

  // b numbers its names differently; merging maps them onto a's table.
  sim::TraceRecorder b(true);
  b.add("fpga", 1.0, 3.0, "kernel");
  a.merge_from(std::span(&b, 1));
  ASSERT_EQ(a.spans().size(), 3u);
  EXPECT_EQ(a.spans()[2].resource, a.spans()[1].resource);
  EXPECT_EQ(a.name(a.spans()[2].label), "kernel");
  EXPECT_TRUE(b.spans().empty());
  EXPECT_DOUBLE_EQ(a.busy_by_resource().at("fpga"), 4.0);
}

TEST(Trace, DisabledRecorderIsNoop) {
  sim::TraceRecorder tr(false);
  tr.add("cpu", 0.0, 1.0, "work");
  EXPECT_TRUE(tr.spans().empty());
}

TEST(Trace, RejectsBackwardsSpan) {
  sim::TraceRecorder tr(true);
  EXPECT_THROW(tr.add("cpu", 2.0, 1.0, "bad"), rcs::Error);
}

TEST(Trace, CsvSortedByStart) {
  sim::TraceRecorder tr(true);
  tr.add("b", 2.0, 3.0, "late");
  tr.add("a", 0.0, 1.0, "early");
  std::ostringstream os;
  tr.write_csv(os);
  const std::string s = os.str();
  EXPECT_EQ(s.find("resource,start,end,label"), 0u);
  EXPECT_LT(s.find("early"), s.find("late"));
}

}  // namespace
