// Tests for the critical-path analyzer (core::analyze_run) and its result
// types (obs::cp): exact-match attribution on hand-built traces with a
// known critical path, the same analysis from a trace in any event order,
// the top-segment selection, structural invariants on real
// LU/FW/Cholesky/MM runs, and byte-identical analysis output across pool
// sizes and across repeated runs of a reused World.

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "core/analysis.hpp"
#include "core/cholesky.hpp"
#include "core/drift.hpp"
#include "core/mm.hpp"
#include "core/system.hpp"
#include "graph/generate.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/generate.hpp"
#include "net/minimpi.hpp"
#include "obs/critpath.hpp"
#include "sim/trace.hpp"

namespace cp = rcs::obs::cp;
namespace core = rcs::core;
namespace net = rcs::net;
namespace sim = rcs::sim;
namespace common = rcs::common;

namespace {

/// A span on rank `rank`'s resource "node<rank>.<unit>".
void span(sim::TraceRecorder& rec, int rank, const char* unit, double start,
          double end, const char* label) {
  rec.add("node" + std::to_string(rank) + "." + unit, start, end, label);
}

/// A comm event on `rank`'s clock [t0, t1], of a message on the wire over
/// [depart, arrival].
void comm(sim::TraceRecorder& rec, sim::CommEvent::Kind kind, int rank,
          int peer, double t0, double t1, double depart, double arrival,
          const char* phase) {
  sim::CommEvent ev;
  ev.kind = kind;
  ev.phase = rec.intern(phase);
  ev.rank = rank;
  ev.peer = peer;
  ev.t0 = t0;
  ev.t1 = t1;
  ev.depart = depart;
  ev.arrival = arrival;
  rec.add_comm(ev);
}

constexpr auto kSend = sim::CommEvent::Kind::Send;
constexpr auto kNicSend = sim::CommEvent::Kind::NicSend;
constexpr auto kRecv = sim::CommEvent::Kind::Recv;

std::string analysis_json(const cp::Analysis& an) {
  std::ostringstream os;
  an.write_json(os);
  return os.str();
}

/// Two ranks, makespan 10, one message whose arrival binds the receiver:
///   rank 0: cpu "a" [0,4]; send [4,5] (wire departs 4, arrives 6); cpu
///           "b" [5,7]; idle [7,10]
///   rank 1: cpu "c" [0,2]; recv [2,6] (arrival-bound); cpu "d" [6,10]
/// The critical path is a(0-4 on 0) -> wire(4-6) -> d(6-10 on 1).
cp::Analysis known_analysis() {
  sim::TraceRecorder rec(true);
  span(rec, 0, "cpu", 0.0, 4.0, "a");
  span(rec, 0, "cpu", 5.0, 7.0, "b");
  span(rec, 1, "cpu", 0.0, 2.0, "c");
  span(rec, 1, "cpu", 6.0, 10.0, "d");
  comm(rec, kSend, 0, 1, 4.0, 5.0, 4.0, 6.0, "send");
  comm(rec, kRecv, 1, 0, 2.0, 6.0, 4.0, 6.0, "recv");
  return core::analyze_run(rec, 2, 10.0);
}

TEST(CritPath, KnownTimelineBucketsExactly) {
  const cp::Analysis an = known_analysis();
  ASSERT_EQ(an.ranks, 2);
  EXPECT_DOUBLE_EQ(an.makespan_s, 10.0);

  ASSERT_EQ(an.per_rank.size(), 2u);
  const cp::RankAttribution& r0 = an.per_rank[0];
  EXPECT_DOUBLE_EQ(r0.cpu_s, 6.0);            // a (4) + b (2)
  EXPECT_DOUBLE_EQ(r0.fpga_s, 0.0);
  EXPECT_DOUBLE_EQ(r0.transfer_visible_s, 1.0);  // send setup [4,5]
  EXPECT_DOUBLE_EQ(r0.fault_recovery_s, 0.0);
  EXPECT_DOUBLE_EQ(r0.wait_idle_s, 3.0);      // [7,10]
  EXPECT_DOUBLE_EQ(r0.finish_s, 7.0);
  EXPECT_DOUBLE_EQ(r0.utilization, 0.7);
  EXPECT_DOUBLE_EQ(r0.transfer_hidden_s, 0.0);

  const cp::RankAttribution& r1 = an.per_rank[1];
  EXPECT_DOUBLE_EQ(r1.cpu_s, 6.0);               // c (2) + d (4)
  EXPECT_DOUBLE_EQ(r1.transfer_visible_s, 4.0);  // recv wait [2,6]
  EXPECT_DOUBLE_EQ(r1.wait_idle_s, 0.0);
  EXPECT_DOUBLE_EQ(r1.finish_s, 10.0);
  EXPECT_DOUBLE_EQ(r1.utilization, 1.0);
  // Wire [4,6] was entirely visible to the waiting receiver: nothing hidden.
  EXPECT_DOUBLE_EQ(r1.transfer_hidden_s, 0.0);

  // Partition: every rank's buckets must sum to the makespan, exactly here.
  EXPECT_TRUE(an.buckets_sum_to_makespan);
  EXPECT_DOUBLE_EQ(an.max_bucket_sum_rel_err, 0.0);

  // busy = 7 and 10 -> resource-seconds adds the 2 s wire.
  EXPECT_DOUBLE_EQ(an.resource_seconds_s, 19.0);
  EXPECT_DOUBLE_EQ(an.mean_utilization, 0.85);
  EXPECT_DOUBLE_EQ(an.imbalance_max_over_mean, 10.0 / 8.5);
  EXPECT_DOUBLE_EQ(an.jain_fairness, 17.0 * 17.0 / (2.0 * 149.0));
}

TEST(CritPath, KnownTimelineCriticalPathExactly) {
  const cp::Analysis an = known_analysis();
  EXPECT_DOUBLE_EQ(an.critical_path_s, 10.0);
  EXPECT_DOUBLE_EQ(an.cp_idle_s, 0.0);
  EXPECT_TRUE(an.invariants_hold());

  ASSERT_EQ(an.critical_path.size(), 3u);
  const cp::Segment& s0 = an.critical_path[0];
  EXPECT_EQ(s0.kind, "cpu");
  EXPECT_EQ(s0.rank, 0);
  EXPECT_EQ(s0.label, "a");
  EXPECT_DOUBLE_EQ(s0.start, 0.0);
  EXPECT_DOUBLE_EQ(s0.end, 4.0);

  const cp::Segment& s1 = an.critical_path[1];
  EXPECT_EQ(s1.kind, "wire");
  EXPECT_EQ(s1.rank, 0);  // sender
  EXPECT_EQ(s1.peer, 1);  // receiver
  EXPECT_DOUBLE_EQ(s1.start, 4.0);
  EXPECT_DOUBLE_EQ(s1.end, 6.0);

  const cp::Segment& s2 = an.critical_path[2];
  EXPECT_EQ(s2.kind, "cpu");
  EXPECT_EQ(s2.rank, 1);
  EXPECT_EQ(s2.label, "d");
  EXPECT_DOUBLE_EQ(s2.start, 6.0);
  EXPECT_DOUBLE_EQ(s2.end, 10.0);
}

TEST(CritPath, RecoveryAndFpgaBucketsAndIdleTail) {
  sim::TraceRecorder rec(true);
  span(rec, 0, "cpu", 0.0, 2.0, "x");
  span(rec, 0, "cpu", 2.0, 5.0, "abft.repair");
  span(rec, 0, "fpga_wait", 5.0, 9.0, "fpga.wait");
  // The device busy span backing the exposed wait: resource-seconds only.
  span(rec, 0, "fpga", 5.0, 9.0, "opMM");

  const cp::Analysis an = core::analyze_run(rec, 1, 10.0);
  const cp::RankAttribution& r0 = an.per_rank[0];
  EXPECT_DOUBLE_EQ(r0.cpu_s, 2.0);
  EXPECT_DOUBLE_EQ(r0.fault_recovery_s, 3.0);
  EXPECT_DOUBLE_EQ(r0.fpga_s, 4.0);
  EXPECT_DOUBLE_EQ(r0.wait_idle_s, 1.0);  // [9,10]
  EXPECT_TRUE(an.buckets_sum_to_makespan);

  // Walk: idle tail [9,10], then fpga, recovery, cpu.
  EXPECT_DOUBLE_EQ(an.critical_path_s, 9.0);
  EXPECT_DOUBLE_EQ(an.cp_idle_s, 1.0);
  ASSERT_EQ(an.critical_path.size(), 4u);
  EXPECT_EQ(an.critical_path[0].kind, "cpu");
  EXPECT_EQ(an.critical_path[1].kind, "recovery");
  EXPECT_EQ(an.critical_path[2].kind, "fpga");
  EXPECT_EQ(an.critical_path[3].kind, "idle");

  // busy 9 + device 4 = 13 resource-seconds.
  EXPECT_DOUBLE_EQ(an.resource_seconds_s, 13.0);
  EXPECT_TRUE(an.invariants_hold());
}

TEST(CritPath, ZeroLengthRecvCarriesHiddenTransfer) {
  sim::TraceRecorder rec(true);
  span(rec, 0, "cpu", 0.0, 10.0, "busy");
  // Fully hidden transfer: the wait found the message already arrived, so
  // the recv interval is zero-length and contributes no visible time.
  comm(rec, kRecv, 0, 0, 5.0, 5.0, 3.0, 5.0, "recv");

  const cp::Analysis an = core::analyze_run(rec, 1, 10.0);
  const cp::RankAttribution& r0 = an.per_rank[0];
  EXPECT_DOUBLE_EQ(r0.transfer_visible_s, 0.0);
  EXPECT_DOUBLE_EQ(r0.transfer_hidden_s, 2.0);
  EXPECT_DOUBLE_EQ(r0.cpu_s, 10.0);
  EXPECT_TRUE(an.buckets_sum_to_makespan);
  EXPECT_TRUE(an.invariants_hold());
}

/// Four receives on rank 0, one phase each, split into wire seconds and the
/// part of the wire that elapsed before the wait began (hidden):
///   "hidden"   wait [4,4],   wire [1,3]:  arrived before the wait
///   "partly"   wait [6,8],   wire [4,8]:  [4,6] hidden, [6,8] stalled on
///   "visible"  wait [8,10],  wire [9,10]: departed after the wait began
///   "deadline" wait [10,12], wire [9,14]: gave up at the deadline 12;
///              [9,10] hidden, the rest outlived the wait
TEST(CritPath, PhaseWireAndHiddenSecondsPerReceive) {
  sim::TraceRecorder rec(true);
  span(rec, 0, "cpu", 0.0, 4.0, "a");
  span(rec, 0, "cpu", 4.0, 6.0, "b");
  comm(rec, kRecv, 0, 1, 4.0, 4.0, 1.0, 3.0, "hidden");
  comm(rec, kRecv, 0, 1, 6.0, 8.0, 4.0, 8.0, "partly");
  comm(rec, kRecv, 0, 1, 8.0, 10.0, 9.0, 10.0, "visible");
  comm(rec, kRecv, 0, 1, 10.0, 12.0, 9.0, 14.0, "deadline");

  const cp::Analysis an = core::analyze_run(rec, 2, 12.0);
  struct Expect {
    const char* label;
    double wire, hidden, visible;
  };
  const Expect expect[] = {{"deadline", 5.0, 1.0, 2.0},
                           {"hidden", 2.0, 2.0, 0.0},
                           {"partly", 4.0, 2.0, 2.0},
                           {"visible", 1.0, 0.0, 2.0}};
  for (const Expect& e : expect) {
    const auto it = std::find_if(
        an.per_phase.begin(), an.per_phase.end(),
        [&](const cp::PhaseAttribution& pa) { return pa.label == e.label; });
    ASSERT_NE(it, an.per_phase.end()) << e.label;
    EXPECT_DOUBLE_EQ(it->transfer_wire_s, e.wire) << e.label;
    EXPECT_DOUBLE_EQ(it->transfer_hidden_s, e.hidden) << e.label;
    EXPECT_DOUBLE_EQ(it->transfer_visible_s, e.visible) << e.label;
  }
  // Compute phases receive nothing.
  EXPECT_DOUBLE_EQ(an.per_phase.front().transfer_wire_s, 0.0);  // "a"
  EXPECT_DOUBLE_EQ(an.per_rank[0].transfer_hidden_s, 5.0);
  EXPECT_TRUE(an.buckets_sum_to_makespan);
}

/// A NIC chain: rank 0 queues isends whose wires back up behind each other,
/// and rank 1's receive of the last message binds its clock. At t = 5 the
/// walk on rank 0 finds no CPU interval, only wires arriving there:
///   0->2 [3,5]  loses to a later departure
///   0->3 [4,5]  ties on departure with 0->2 [4,5], which has the lower dst
///   0->1 [5,5]  latest departure, but zero-length: never followed
/// Wires arriving before the window ([2,3], [3,4]) and after it ([5,6])
/// must not be chosen there; the first two continue the chain. Each isend's
/// CPU setup is zero-length, so it is only a wire.
TEST(CritPath, NicChainPicksLatestDepartureThenLowerDst) {
  sim::TraceRecorder rec(true);
  span(rec, 0, "cpu", 0.0, 2.0, "a");
  span(rec, 1, "cpu", 6.0, 10.0, "d");
  const struct {
    int dst;
    double depart, arrival;
  } isends[] = {{1, 2.0, 3.0}, {3, 3.0, 4.0}, {2, 3.0, 5.0}, {3, 4.0, 5.0},
                {2, 4.0, 5.0}, {1, 5.0, 5.0}, {1, 5.0, 6.0}};
  for (const auto& w : isends) {
    comm(rec, kNicSend, 0, w.dst, 2.0, 2.0, w.depart, w.arrival, "send");
  }
  comm(rec, kRecv, 1, 0, 1.0, 6.0, 5.0, 6.0, "recv");

  const cp::Analysis an = core::analyze_run(rec, 4, 10.0);
  EXPECT_DOUBLE_EQ(an.critical_path_s, 10.0);
  EXPECT_DOUBLE_EQ(an.cp_idle_s, 0.0);
  struct Expect {
    const char* kind;
    int rank, peer;
    const char* label;
    double start, end;
  };
  const Expect expect[] = {
      {"cpu", 0, -1, "a", 0.0, 2.0},     {"wire", 0, 1, "nic", 2.0, 3.0},
      {"wire", 0, 3, "nic", 3.0, 4.0},   {"wire", 0, 2, "nic", 4.0, 5.0},
      {"wire", 0, 1, "recv", 5.0, 6.0},  {"cpu", 1, -1, "d", 6.0, 10.0}};
  ASSERT_EQ(an.critical_path.size(), std::size(expect));
  for (std::size_t i = 0; i < std::size(expect); ++i) {
    const cp::Segment& seg = an.critical_path[i];
    EXPECT_EQ(seg.kind, expect[i].kind) << i;
    EXPECT_EQ(seg.rank, expect[i].rank) << i;
    EXPECT_EQ(seg.peer, expect[i].peer) << i;
    EXPECT_EQ(seg.label, expect[i].label) << i;
    EXPECT_DOUBLE_EQ(seg.start, expect[i].start) << i;
    EXPECT_DOUBLE_EQ(seg.end, expect[i].end) << i;
  }
}

TEST(CritPath, EmptyTimelineIsHarmless) {
  const sim::TraceRecorder rec(true);
  const cp::Analysis an = core::analyze_run(rec, 0, 0.0);
  EXPECT_EQ(an.ranks, 0);
  EXPECT_DOUBLE_EQ(an.critical_path_s, 0.0);
  EXPECT_TRUE(an.critical_path.empty());
}

/// The events of a small hand-scheduled run: rank 0 computes a panel,
/// sends a stripe to each of three workers and collects their results;
/// each worker waits, computes on its CPU and its FPGA, and isends its
/// result back. Three rounds give arrival-bound, partly hidden and fully
/// hidden receives, recovery work, device spans and idle gaps. Every time
/// is a multiple of 1/8, so every sum the analysis makes is exact in any
/// order of its terms.
struct HandTrace {
  struct Span {
    int rank;
    const char* unit;
    double start, end;
    const char* label;
  };
  struct Comm {
    sim::CommEvent::Kind kind;
    int rank, peer;
    double t0, t1, depart, arrival;
    const char* phase;
  };
  std::vector<Span> spans;
  std::vector<Comm> comms;
  double makespan = 0.0;

  HandTrace() {
    constexpr int kRanks = 4;
    double clock[kRanks] = {};
    double nic_free[kRanks] = {};
    for (int round = 0; round < 3; ++round) {
      spans.push_back({0, "cpu", clock[0], clock[0] + 1.0, "panel"});
      clock[0] += 1.0;
      double arrival[kRanks] = {};
      for (int w = 1; w < kRanks; ++w) {
        arrival[w] = clock[0] + 0.5;
        comms.push_back(
            {kSend, 0, w, clock[0], clock[0] + 0.125, clock[0], arrival[w],
             "send"});
        clock[0] += 0.125;
      }
      spans.push_back({0, "dram", clock[0], clock[0] + 0.25, "panel"});
      clock[0] += 0.25;
      double result[kRanks] = {};
      for (int w = 1; w < kRanks; ++w) {
        // Worker w is busy for w/2 s before it waits, so later workers find
        // their stripe already there.
        spans.push_back({w, "cpu", clock[w], clock[w] + 0.5 * w, "update"});
        clock[w] += 0.5 * w;
        const double t1 = std::max(clock[w], arrival[w]);
        comms.push_back(
            {kRecv, w, 0, clock[w], t1, arrival[w] - 0.5, arrival[w], "opMM"});
        clock[w] = t1;
        spans.push_back({w, "cpu", clock[w], clock[w] + 0.25, "opMM"});
        clock[w] += 0.25;
        spans.push_back({w, "fpga_wait", clock[w], clock[w] + 0.375, "opMM"});
        spans.push_back({w, "fpga", clock[w] - 0.25, clock[w] + 0.375, "opMM"});
        clock[w] += 0.375;
        const double depart = std::max(clock[w], nic_free[w]);
        result[w] = depart + 0.25 * w;
        nic_free[w] = result[w];
        comms.push_back(
            {kNicSend, w, 0, clock[w], clock[w], depart, result[w], "send"});
      }
      for (int w = kRanks - 1; w >= 1; --w) {
        const double t1 = std::max(clock[0], result[w]);
        comms.push_back({kRecv, 0, w, clock[0], t1, result[w] - 0.25 * w,
                         result[w], "opMS"});
        clock[0] = t1;
      }
      if (round == 1) {
        spans.push_back({0, "cpu", clock[0], clock[0] + 0.125, "abft"});
        clock[0] += 0.125;
      }
    }
    makespan = *std::max_element(std::begin(clock), std::end(clock)) + 0.5;
  }

  /// Record the spans, then the comm events, each in the order `order`
  /// gives of their indices.
  template <class Order>
  sim::TraceRecorder record(Order order) const {
    sim::TraceRecorder rec(true);
    for (const std::size_t i : order(spans)) {
      const Span& s = spans[i];
      span(rec, s.rank, s.unit, s.start, s.end, s.label);
    }
    for (const std::size_t i : order(comms)) {
      const Comm& c = comms[i];
      comm(rec, c.kind, c.rank, c.peer, c.t0, c.t1, c.depart, c.arrival,
           c.phase);
    }
    return rec;
  }
};

// A merged per-rank recording lists each rank's events in clock order, rank
// after rank; that is the only order a run's recorder has. The analysis of
// the same events appended with ranks interleaved and out of start order
// (the generation order, reversed) must be the same, byte for byte.
TEST(CritPath, AnyEventOrderGivesTheSameAnalysis) {
  const HandTrace trace;
  const auto by_rank = [](const auto& events) {
    std::vector<std::size_t> order;
    for (int r = 0; r < 4; ++r) {
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].rank == r) order.push_back(i);
      }
    }
    return order;
  };
  const auto reversed = [](const auto& events) {
    std::vector<std::size_t> order(events.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = order.size() - 1 - i;
    }
    return order;
  };
  const cp::Analysis merged =
      core::analyze_run(trace.record(by_rank), 4, trace.makespan);
  const cp::Analysis shuffled =
      core::analyze_run(trace.record(reversed), 4, trace.makespan);

  EXPECT_TRUE(merged.invariants_hold());
  EXPECT_GT(merged.cp_idle_s, 0.0);
  EXPECT_GE(merged.critical_path.size(), 20u);
  const auto has = [&](const char* kind) {
    return std::any_of(merged.critical_path.begin(),
                       merged.critical_path.end(),
                       [&](const cp::Segment& s) { return s.kind == kind; });
  };
  EXPECT_TRUE(has("wire") && has("fpga") && has("transfer") && has("cpu"));
  EXPECT_EQ(analysis_json(shuffled), analysis_json(merged));
  ASSERT_EQ(shuffled.critical_path.size(), merged.critical_path.size());
  for (std::size_t i = 0; i < merged.critical_path.size(); ++i) {
    EXPECT_EQ(shuffled.critical_path[i].label, merged.critical_path[i].label);
    EXPECT_EQ(shuffled.critical_path[i].start, merged.critical_path[i].start);
  }
}

// top_segments selects the k longest segments without sorting the path.
// With durations, starts and ranks tied, it must return what a stable sort
// of the whole path by (duration descending, start, rank) returns.
TEST(CritPath, TopSegmentsMatchAStableSortUnderTies) {
  cp::Analysis an;
  const struct {
    int rank;
    double start, end;
  } steps[] = {{0, 0.0, 1.0}, {1, 0.0, 1.0}, {0, 0.0, 1.0}, {2, 1.0, 1.5},
               {1, 1.5, 2.5}, {0, 1.5, 2.5}, {1, 1.5, 2.5}, {3, 2.5, 3.0},
               {0, 3.0, 3.0}, {2, 3.0, 4.0}, {2, 3.0, 4.0}, {1, 4.0, 4.5}};
  for (std::size_t i = 0; i < std::size(steps); ++i) {
    an.critical_path.push_back(cp::Segment{"cpu", steps[i].rank, -1,
                                           "s" + std::to_string(i),
                                           steps[i].start, steps[i].end});
  }
  std::vector<cp::Segment> sorted = an.critical_path;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const cp::Segment& a, const cp::Segment& b) {
                     if (a.duration() != b.duration())
                       return a.duration() > b.duration();
                     if (a.start != b.start) return a.start < b.start;
                     return a.rank < b.rank;
                   });
  for (std::size_t k = 0; k <= sorted.size() + 1; ++k) {
    const std::vector<cp::Segment> top = an.top_segments(k);
    ASSERT_EQ(top.size(), std::min(k, sorted.size())) << k;
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].label, sorted[i].label) << "k=" << k << " i=" << i;
    }
  }
}

// --- Real runs: invariants asserted on LU and FW drift reports -------------

void expect_invariants(const cp::Analysis& an) {
  const double mk = an.makespan_s;
  ASSERT_GT(mk, 0.0);
  const double tol = mk * 1e-9 + 1e-12;
  EXPECT_LE(an.critical_path_s, mk + tol);
  EXPECT_LE(mk, an.resource_seconds_s + tol);
  EXPECT_TRUE(an.cp_le_makespan);
  EXPECT_TRUE(an.makespan_le_resource_seconds);
  EXPECT_TRUE(an.buckets_sum_to_makespan);
  for (const cp::RankAttribution& ra : an.per_rank) {
    const double sum = ra.cpu_s + ra.fpga_s + ra.transfer_visible_s +
                       ra.fault_recovery_s + ra.wait_idle_s;
    EXPECT_NEAR(sum, mk, mk * 1e-6) << "rank " << ra.rank;
  }
}

core::DriftReport lu_report() {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = 3;
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  const rcs::linalg::Matrix a = rcs::linalg::diagonally_dominant(64, 42);
  return core::lu_drift_report(sys, cfg, a);
}

core::DriftReport fw_report(bool lookahead) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = 2;
  core::FwConfig cfg;
  cfg.n = 48;
  cfg.b = 8;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.lookahead = lookahead;
  const rcs::linalg::Matrix d0 = rcs::graph::random_digraph(48, 7, 0.4);
  return core::fw_drift_report(sys, cfg, d0);
}

TEST(CritPathRuns, LuInvariantsHold) {
  const core::DriftReport rep = lu_report();
  EXPECT_EQ(rep.analysis.ranks, 3);
  expect_invariants(rep.analysis);
  EXPECT_FALSE(rep.analysis.critical_path.empty());
}

TEST(CritPathRuns, FwInvariantsHold) {
  for (const bool lookahead : {false, true}) {
    SCOPED_TRACE(lookahead ? "lookahead" : "blocking");
    const core::DriftReport rep = fw_report(lookahead);
    EXPECT_EQ(rep.analysis.ranks, 2);
    expect_invariants(rep.analysis);
    EXPECT_FALSE(rep.analysis.critical_path.empty());
  }
}

TEST(CritPathRuns, LuLookaheadInvariantsHold) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = 3;
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.lookahead = true;
  const rcs::linalg::Matrix a = rcs::linalg::diagonally_dominant(64, 42);
  const core::DriftReport rep = core::lu_drift_report(sys, cfg, a);
  expect_invariants(rep.analysis);
}

// Cholesky and MM run on the shared rank harness, so they record comm events
// and their traces are analyzable like LU's and FW's.
TEST(CritPathRuns, CholInvariantsHold) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = 4;
  core::CholConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.b_f = 8;
  const rcs::linalg::Matrix a = rcs::linalg::spd_matrix(64, 45);
  sim::TraceRecorder rec(true);
  const auto res = core::cholesky_functional(sys, cfg, a, false, &rec);
  EXPECT_FALSE(rec.comm_events().empty());
  const cp::Analysis an = core::analyze_run(rec, sys.p, res.run.seconds);
  EXPECT_EQ(an.ranks, 4);
  expect_invariants(an);
  EXPECT_FALSE(an.critical_path.empty());
}

TEST(CritPathRuns, MmInvariantsHold) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = 3;
  core::MmConfig cfg;
  cfg.n = 96;
  cfg.b = 48;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.b_f = 24;
  const rcs::linalg::Matrix a = rcs::linalg::random_matrix(96, 96, 801);
  const rcs::linalg::Matrix b = rcs::linalg::random_matrix(96, 96, 803);
  sim::TraceRecorder rec(true);
  const auto res = core::mm_functional(sys, cfg, a, b, false, &rec);
  EXPECT_FALSE(rec.comm_events().empty());
  const cp::Analysis an = core::analyze_run(rec, sys.p, res.run.seconds);
  EXPECT_EQ(an.ranks, 3);
  expect_invariants(an);
  EXPECT_FALSE(an.critical_path.empty());
}

// --- Determinism ------------------------------------------------------------

TEST(CritPathDeterminism, AnalysisJsonIdenticalAcrossPoolSizes) {
  std::vector<std::string> outputs;
  for (int threads : {1, 2, 7}) {
    common::ThreadPool::set_global_threads(threads);
    outputs.push_back(analysis_json(lu_report().analysis));
  }
  common::ThreadPool::set_global_threads(1);
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
}

TEST(CritPathDeterminism, AnalysisJsonIdenticalAcrossReusedWorldRuns) {
  net::NetworkParams np;
  np.bytes_per_s = 1e9;
  np.latency_s = 1e-6;
  net::World world(2, np);

  auto run_once = [&world]() {
    std::vector<sim::TraceRecorder> traces;
    traces.emplace_back(true);
    traces.emplace_back(true);
    world.run([&traces](net::Comm& comm) {
      comm.set_trace(&traces[static_cast<std::size_t>(comm.rank())]);
      if (comm.rank() == 0) {
        std::vector<double> payload(1024, 1.0);
        comm.send_doubles(1, 5, payload.data(), payload.size());
        comm.barrier();
      } else {
        comm.clock().advance(1e-5);  // busy before the wait
        (void)comm.recv(0, 5, "phase1");
        comm.barrier();
      }
    });
    sim::TraceRecorder merged(true);
    merged.merge_from(traces);
    return analysis_json(core::analyze_run(merged, 2, world.makespan()));
  };

  const std::string first = run_once();
  const std::string second = run_once();
  const std::string third = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);
}

}  // namespace
