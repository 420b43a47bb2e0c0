// Tests for the critical-path analyzer (obs::cp) and its core bridge:
// exact-match attribution on hand-built timelines with a known critical
// path, structural invariants on real LU/FW/Cholesky/MM runs, and
// byte-identical analysis output across pool sizes and across repeated runs
// of a reused World.

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

cp::Interval interval(int rank, double start, double end, cp::Bucket bucket,
                      const char* label) {
  cp::Interval iv;
  iv.rank = rank;
  iv.start = start;
  iv.end = end;
  iv.bucket = bucket;
  iv.label = label;
  return iv;
}

cp::Interval comm_interval(int rank, double start, double end, cp::Op op,
                           int peer, double depart, double arrival,
                           const char* label) {
  cp::Interval iv = interval(rank, start, end, cp::Bucket::TransferVisible,
                             label);
  iv.op = op;
  iv.peer = peer;
  iv.depart = depart;
  iv.arrival = arrival;
  return iv;
}

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
cp::Timeline known_timeline() {
  cp::Timeline tl;
  tl.ranks = 2;
  tl.makespan = 10.0;
  tl.intervals.push_back(interval(0, 0.0, 4.0, cp::Bucket::Cpu, "a"));
  tl.intervals.push_back(
      comm_interval(0, 4.0, 5.0, cp::Op::Send, 1, 4.0, 6.0, "send"));
  tl.intervals.push_back(interval(0, 5.0, 7.0, cp::Bucket::Cpu, "b"));
  tl.intervals.push_back(interval(1, 0.0, 2.0, cp::Bucket::Cpu, "c"));
  tl.intervals.push_back(
      comm_interval(1, 2.0, 6.0, cp::Op::Recv, 0, 4.0, 6.0, "recv"));
  tl.intervals.push_back(interval(1, 6.0, 10.0, cp::Bucket::Cpu, "d"));
  tl.wires.push_back(cp::Wire{0, 1, 4.0, 6.0, 100});
  return tl;
}

TEST(CritPath, KnownTimelineBucketsExactly) {
  const cp::Analysis an = cp::analyze(known_timeline());
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
  const cp::Analysis an = cp::analyze(known_timeline());
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
  cp::Timeline tl;
  tl.ranks = 1;
  tl.makespan = 10.0;
  tl.intervals.push_back(interval(0, 0.0, 2.0, cp::Bucket::Cpu, "x"));
  tl.intervals.push_back(
      interval(0, 2.0, 5.0, cp::Bucket::FaultRecovery, "abft.repair"));
  tl.intervals.push_back(interval(0, 5.0, 9.0, cp::Bucket::Fpga,
                                  "fpga.wait"));
  tl.concurrent_fpga_s = 4.0;  // device busy span backing the exposed wait

  const cp::Analysis an = cp::analyze(tl);
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
  cp::Timeline tl;
  tl.ranks = 1;
  tl.makespan = 10.0;
  tl.intervals.push_back(interval(0, 0.0, 10.0, cp::Bucket::Cpu, "busy"));
  // Fully hidden transfer: the wait found the message already arrived, so
  // the recv interval is zero-length and contributes no visible time.
  tl.intervals.push_back(
      comm_interval(0, 5.0, 5.0, cp::Op::Recv, 0, 3.0, 5.0, "recv"));

  const cp::Analysis an = cp::analyze(tl);
  const cp::RankAttribution& r0 = an.per_rank[0];
  EXPECT_DOUBLE_EQ(r0.transfer_visible_s, 0.0);
  EXPECT_DOUBLE_EQ(r0.transfer_hidden_s, 2.0);
  EXPECT_DOUBLE_EQ(r0.cpu_s, 10.0);
  EXPECT_TRUE(an.buckets_sum_to_makespan);
  EXPECT_TRUE(an.invariants_hold());
}

TEST(CritPath, EmptyTimelineIsHarmless) {
  cp::Timeline tl;
  const cp::Analysis an = cp::analyze(tl);
  EXPECT_EQ(an.ranks, 0);
  EXPECT_DOUBLE_EQ(an.critical_path_s, 0.0);
  EXPECT_TRUE(an.critical_path.empty());
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

core::DriftReport fw_report() {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = 2;
  core::FwConfig cfg;
  cfg.n = 48;
  cfg.b = 8;
  cfg.mode = core::DesignMode::Hybrid;
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
  const core::DriftReport rep = fw_report();
  EXPECT_EQ(rep.analysis.ranks, 2);
  expect_invariants(rep.analysis);
  EXPECT_FALSE(rep.analysis.critical_path.empty());
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
    for (sim::TraceRecorder& t : traces) merged.merge_from(std::move(t));
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
