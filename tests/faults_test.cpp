// End-to-end fault-recovery tests: the fault-tolerant LU / Floyd-Warshall
// pipelines must complete under injected FPGA bit-flips, degraded links, and
// stragglers, with outputs bit-identical to the fault-free run — and the
// zero-cost default (no plan / empty plan) must not perturb anything.

#include <gtest/gtest.h>

#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "graph/generate.hpp"
#include "linalg/generate.hpp"
#include "net/minimpi.hpp"
#include "sim/faults.hpp"

namespace core = rcs::core;
namespace la = rcs::linalg;
namespace gr = rcs::graph;
namespace net = rcs::net;
namespace sim = rcs::sim;

namespace {

core::SystemParams xd1_p(int p) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  return sys;
}

core::LuConfig lu_cfg() {
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  // At this small block size the solved partition gives the FPGA no rows;
  // force a split so FPGA calls (the bit-flip targets) actually happen.
  cfg.b_f = 8;
  return cfg;
}

core::FwConfig fw_cfg() {
  core::FwConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  return cfg;
}

sim::BitFlip flip(int rank, std::uint64_t call, double ru, double cu,
                  int bit) {
  sim::BitFlip f;
  f.rank = rank;
  f.call = call;
  f.row_u = ru;
  f.col_u = cu;
  f.bit = bit;
  return f;
}

// ABFT on the LU update: the checksum test detects the corrupted opMM tile,
// repairs it (exact single-element recompute or full-share reissue), and the
// factorization lands bit-identical to the fault-free run.
TEST(FaultRecovery, LuSurvivesBitFlipsBitIdentically) {
  const la::Matrix a = la::diagonally_dominant(64, 7);
  const core::LuFunctionalResult clean = core::lu_functional(xd1_p(3), lu_cfg(), a);

  sim::FaultPlan plan(11);
  // Early call ordinals so the flips land at this problem size; high bits so
  // the perturbation dwarfs checksum round-off.
  plan.add_bitflip(flip(0, 0, 0.3, 0.7, 52));
  plan.add_bitflip(flip(1, 1, 0.9, 0.1, 57));

  core::LuConfig cfg = lu_cfg();
  cfg.faults = &plan;
  cfg.fault_tolerance = true;
  const core::LuFunctionalResult faulty = core::lu_functional(xd1_p(3), cfg, a);

  EXPECT_GE(faulty.faults.bitflips_injected, 1u);
  EXPECT_EQ(faulty.faults.detected, faulty.faults.bitflips_injected);
  EXPECT_EQ(faulty.faults.corrected_elements + faulty.faults.reissued_blocks,
            faulty.faults.detected);
  EXPECT_GT(faulty.faults.checks, 0u);
  EXPECT_GT(faulty.faults.recovery_cpu_s, 0.0);
  EXPECT_EQ(faulty.faults.mttr_s.size(), faulty.faults.detected);
  EXPECT_TRUE(la::bit_equal(faulty.factored.view(), clean.factored.view()));
  // Detection and repair cost simulated time: the faulty run is not free.
  EXPECT_GT(faulty.run.seconds, clean.run.seconds);
}

// Without tolerance the same flips corrupt the factorization — i.e. the
// injection is real and ABFT is what saves the run above.
TEST(FaultRecovery, LuBitFlipCorruptsWithoutTolerance) {
  const la::Matrix a = la::diagonally_dominant(64, 7);
  const core::LuFunctionalResult clean = core::lu_functional(xd1_p(3), lu_cfg(), a);

  sim::FaultPlan plan(11);
  plan.add_bitflip(flip(0, 0, 0.3, 0.7, 52));
  plan.add_bitflip(flip(1, 1, 0.9, 0.1, 57));

  core::LuConfig cfg = lu_cfg();
  cfg.faults = &plan;  // tolerance off: flips go undetected
  const core::LuFunctionalResult faulty = core::lu_functional(xd1_p(3), cfg, a);

  EXPECT_GE(faulty.faults.bitflips_injected, 1u);
  EXPECT_EQ(faulty.faults.detected, 0u);
  EXPECT_FALSE(la::bit_equal(faulty.factored.view(), clean.factored.view()));
}

// A straggling rank (heavy slowdown window) makes its peers' deadline
// receives time out; they re-solve the lost shares locally and still finish
// bit-identical to the fault-free run.
TEST(FaultRecovery, LuSurvivesStragglerBitIdentically) {
  const la::Matrix a = la::diagonally_dominant(64, 7);
  const core::LuFunctionalResult clean = core::lu_functional(xd1_p(3), lu_cfg(), a);

  sim::SlowdownWindow w;
  w.rank = 2;
  w.begin = 0.0;
  w.end = 1e6;  // the whole run
  w.cpu_factor = 50.0;
  w.fpga_factor = 50.0;
  sim::FaultPlan plan(13);
  plan.add_slowdown(w);

  core::LuConfig cfg = lu_cfg();
  cfg.faults = &plan;
  cfg.fault_tolerance = true;
  cfg.straggler_timeout_s = clean.run.seconds / 4.0;
  const core::LuFunctionalResult faulty = core::lu_functional(xd1_p(3), cfg, a);

  EXPECT_GT(faulty.faults.slowdown_hits, 0u);
  EXPECT_GT(faulty.faults.slowdown_added_s, 0.0);
  EXPECT_GE(faulty.faults.straggler_timeouts, 1u);
  EXPECT_GE(faulty.faults.straggler_reissues, 1u);
  EXPECT_TRUE(la::bit_equal(faulty.factored.view(), clean.factored.view()));
}

// Bit-flips and a straggler together — the acceptance scenario: a fixed seed
// with at least one of each, outputs bit-identical to the fault-free run.
TEST(FaultRecovery, LuSurvivesFlipsPlusStraggler) {
  const la::Matrix a = la::diagonally_dominant(64, 7);
  const core::LuFunctionalResult clean = core::lu_functional(xd1_p(3), lu_cfg(), a);

  sim::FaultPlan plan(17);
  plan.add_bitflip(flip(0, 0, 0.5, 0.5, 55));
  sim::SlowdownWindow w;
  w.rank = 1;
  w.begin = 0.0;
  w.end = 1e6;
  w.cpu_factor = 50.0;
  w.fpga_factor = 50.0;
  plan.add_slowdown(w);

  core::LuConfig cfg = lu_cfg();
  cfg.faults = &plan;
  cfg.fault_tolerance = true;
  cfg.straggler_timeout_s = clean.run.seconds / 4.0;
  const core::LuFunctionalResult faulty = core::lu_functional(xd1_p(3), cfg, a);

  EXPECT_GE(faulty.faults.bitflips_injected, 1u);
  EXPECT_GE(faulty.faults.straggler_reissues, 1u);
  EXPECT_TRUE(la::bit_equal(faulty.factored.view(), clean.factored.view()));
}

// FW has no checksum (tropical semiring has no subtraction), so tolerance is
// DMR: recompute each FPGA task's block from its snapshotted inputs and
// compare bitwise. Flipped tasks are detected and repaired.
TEST(FaultRecovery, FwSurvivesBitFlipsBitIdentically) {
  const la::Matrix d0 = gr::random_digraph(64, 5, 0.4);
  const core::FwFunctionalResult clean = core::fw_functional(xd1_p(2), fw_cfg(), d0);

  sim::FaultPlan plan(19);
  plan.add_bitflip(flip(0, 0, 0.2, 0.8, 53));
  plan.add_bitflip(flip(1, 2, 0.7, 0.4, 58));

  core::FwConfig cfg = fw_cfg();
  cfg.faults = &plan;
  cfg.fault_tolerance = true;
  const core::FwFunctionalResult faulty = core::fw_functional(xd1_p(2), cfg, d0);

  EXPECT_GE(faulty.faults.bitflips_injected, 1u);
  EXPECT_EQ(faulty.faults.detected, faulty.faults.bitflips_injected);
  EXPECT_EQ(faulty.faults.reissued_blocks, faulty.faults.detected);
  EXPECT_GT(faulty.faults.checks, 0u);
  EXPECT_TRUE(la::bit_equal(faulty.distances.view(), clean.distances.view()));
  EXPECT_GT(faulty.run.seconds, clean.run.seconds);
}

TEST(FaultRecovery, FwBitFlipCorruptsWithoutTolerance) {
  const la::Matrix d0 = gr::random_digraph(64, 5, 0.4);
  const core::FwFunctionalResult clean = core::fw_functional(xd1_p(2), fw_cfg(), d0);

  sim::FaultPlan plan(19);
  plan.add_bitflip(flip(0, 0, 0.2, 0.8, 53));
  plan.add_bitflip(flip(1, 2, 0.7, 0.4, 58));

  core::FwConfig cfg = fw_cfg();
  cfg.faults = &plan;
  const core::FwFunctionalResult faulty = core::fw_functional(xd1_p(2), cfg, d0);

  EXPECT_GE(faulty.faults.bitflips_injected, 1u);
  EXPECT_EQ(faulty.faults.detected, 0u);
  EXPECT_FALSE(la::bit_equal(faulty.distances.view(), clean.distances.view()));
}

// FW under a straggler: no per-message deadline path is needed — slowed
// compute only shifts the schedule, and the wavefront re-runs nothing — but
// the run must still finish bit-identical, just later.
TEST(FaultRecovery, FwSurvivesStragglerBitIdentically) {
  const la::Matrix d0 = gr::random_digraph(64, 5, 0.4);
  const core::FwFunctionalResult clean = core::fw_functional(xd1_p(2), fw_cfg(), d0);

  sim::SlowdownWindow w;
  w.rank = 1;
  w.begin = 0.0;
  w.end = 1e6;
  w.cpu_factor = 30.0;
  w.fpga_factor = 30.0;
  sim::FaultPlan plan(23);
  plan.add_slowdown(w);

  core::FwConfig cfg = fw_cfg();
  cfg.faults = &plan;
  cfg.fault_tolerance = true;
  const core::FwFunctionalResult faulty = core::fw_functional(xd1_p(2), cfg, d0);

  EXPECT_GT(faulty.faults.slowdown_hits, 0u);
  EXPECT_GT(faulty.run.seconds, clean.run.seconds);
  EXPECT_TRUE(la::bit_equal(faulty.distances.view(), clean.distances.view()));
}

// A fail-stop crash is not recoverable by recomputation: it surfaces as
// RankFailed (distinct from WorldAborted) out of the functional run, in
// both schedules, whether the rank dies at its first communication or
// halfway through the fault-free makespan.
TEST(FaultRecovery, LuCrashPropagatesRankFailed) {
  const la::Matrix a = la::diagonally_dominant(64, 7);
  for (const bool lookahead : {false, true}) {
    core::LuConfig cfg = lu_cfg();
    cfg.lookahead = lookahead;
    const double clean_s = core::lu_functional(xd1_p(3), cfg, a).run.seconds;
    for (const double at : {0.0, clean_s / 2.0}) {
      sim::FaultPlan plan(29);
      sim::RankCrash c;
      c.rank = 1;
      c.at = at;
      plan.add_crash(c);
      cfg.faults = &plan;
      EXPECT_THROW(core::lu_functional(xd1_p(3), cfg, a), net::RankFailed)
          << "lookahead=" << lookahead << " at=" << at;
    }
  }
}

TEST(FaultRecovery, FwCrashPropagatesRankFailed) {
  const la::Matrix d0 = gr::random_digraph(64, 5, 0.4);
  for (const bool lookahead : {false, true}) {
    core::FwConfig cfg = fw_cfg();
    cfg.lookahead = lookahead;
    const double clean_s = core::fw_functional(xd1_p(2), cfg, d0).run.seconds;
    for (const double at : {0.0, clean_s / 2.0}) {
      sim::FaultPlan plan(31);
      sim::RankCrash c;
      c.rank = 1;
      c.at = at;
      plan.add_crash(c);
      cfg.faults = &plan;
      EXPECT_THROW(core::fw_functional(xd1_p(2), cfg, d0), net::RankFailed)
          << "lookahead=" << lookahead << " at=" << at;
    }
  }
}

// Zero-cost default: no plan and an installed-but-empty plan are the same
// run — bit-identical outputs, identical makespan, all-zero fault stats.
TEST(FaultRecovery, DisabledFaultsAreZeroCost) {
  const la::Matrix a = la::diagonally_dominant(64, 7);
  const la::Matrix d0 = gr::random_digraph(64, 5, 0.4);
  const sim::FaultPlan empty(31);

  const core::LuFunctionalResult lu_ref = core::lu_functional(xd1_p(3), lu_cfg(), a);
  core::LuConfig lu = lu_cfg();
  lu.faults = &empty;
  lu.fault_tolerance = false;
  const core::LuFunctionalResult lu_res = core::lu_functional(xd1_p(3), lu, a);
  EXPECT_EQ(lu_res.run.seconds, lu_ref.run.seconds);
  EXPECT_TRUE(la::bit_equal(lu_res.factored.view(), lu_ref.factored.view()));
  EXPECT_EQ(lu_res.faults.bitflips_injected, 0u);
  EXPECT_EQ(lu_res.faults.checks, 0u);
  EXPECT_EQ(lu_res.faults.slowdown_hits, 0u);
  EXPECT_EQ(lu_res.faults.link_hits, 0u);

  const core::FwFunctionalResult fw_ref = core::fw_functional(xd1_p(2), fw_cfg(), d0);
  core::FwConfig fw = fw_cfg();
  fw.faults = &empty;
  const core::FwFunctionalResult fw_res = core::fw_functional(xd1_p(2), fw, d0);
  EXPECT_EQ(fw_res.run.seconds, fw_ref.run.seconds);
  EXPECT_TRUE(la::bit_equal(fw_res.distances.view(), fw_ref.distances.view()));
  EXPECT_EQ(fw_res.faults.checks, 0u);
}

// ABFT with no faults injected: the checks run (and cost simulated time) but
// repair nothing, and the output stays bit-identical to the unchecked run.
TEST(FaultRecovery, AbftAloneIsBitNeutral) {
  const la::Matrix a = la::diagonally_dominant(64, 7);
  const core::LuFunctionalResult ref = core::lu_functional(xd1_p(3), lu_cfg(), a);

  core::LuConfig cfg = lu_cfg();
  cfg.fault_tolerance = true;  // checks on, no plan
  const core::LuFunctionalResult res = core::lu_functional(xd1_p(3), cfg, a);
  EXPECT_GT(res.faults.checks, 0u);
  EXPECT_EQ(res.faults.detected, 0u);
  EXPECT_TRUE(la::bit_equal(res.factored.view(), ref.factored.view()));
  EXPECT_GT(res.run.seconds, ref.run.seconds);  // checks cost time
}

}  // namespace
