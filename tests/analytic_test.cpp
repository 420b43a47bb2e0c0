// Tests for the paper-scale behaviours (Fig. 5-9 shapes) of the executed
// schedules, run cost-only at the paper's operating points, and for the
// §4.5 predictor.

#include <map>

#include <gtest/gtest.h>

#include "core/functional_run.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/mm.hpp"
#include "core/predict.hpp"

namespace core = rcs::core;
using core::DesignMode;
using core::SystemParams;

namespace {

const SystemParams& xd1() {
  static const SystemParams sys = SystemParams::cray_xd1();
  return sys;
}

core::LuConfig lu_cfg(DesignMode mode, long long n = 30000,
                      long long b = 3000) {
  core::LuConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = mode;
  return cfg;
}

core::FwConfig fw_cfg(DesignMode mode, long long n = 92160,
                      long long b = 256) {
  core::FwConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = mode;
  return cfg;
}

core::LuFunctionalResult lu_run(const core::LuConfig& cfg) {
  return core::lu_functional(xd1(), cfg, {});
}

core::FwFunctionalResult fw_run(const core::FwConfig& cfg) {
  return core::fw_functional(xd1(), cfg, {});
}

/// The FW paper point per mode, run once: each run takes about a second.
const core::FwFunctionalResult& fw_paper(DesignMode mode) {
  static std::map<DesignMode, core::FwFunctionalResult> runs;
  auto it = runs.find(mode);
  if (it == runs.end()) it = runs.emplace(mode, fw_run(fw_cfg(mode))).first;
  return it->second;
}

// ---------------------------------------------------------------------------
// LU

TEST(LuCostOnly, HybridReachesPaperScaleGflops) {
  const auto rep = lu_run(lu_cfg(DesignMode::Hybrid));
  // Paper: 20 GFLOPS at n = 30000, b = 3000. The schedule must land in the
  // same regime (the paper's own implementation reaches 86% of its model).
  EXPECT_GT(rep.run.gflops(), 15.0);
  EXPECT_LT(rep.run.gflops(), 28.0);
}

TEST(LuCostOnly, HybridBeatsBothBaselines) {
  const auto hybrid = lu_run(lu_cfg(DesignMode::Hybrid));
  const auto cpu = lu_run(lu_cfg(DesignMode::ProcessorOnly));
  const auto fpga = lu_run(lu_cfg(DesignMode::FpgaOnly));
  EXPECT_GT(hybrid.run.gflops(), cpu.run.gflops());
  EXPECT_GT(hybrid.run.gflops(), fpga.run.gflops());
  // Fig. 9 ordering: processor-only beats FPGA-only for LU (3.9 vs 2.08
  // GFLOPS of per-node compute power).
  EXPECT_GT(cpu.run.gflops(), fpga.run.gflops());
  // Speedup bands around the paper's 1.3x / 2x.
  const double s_cpu = hybrid.run.seconds > 0
                           ? cpu.run.seconds / hybrid.run.seconds
                           : 0.0;
  const double s_fpga = fpga.run.seconds / hybrid.run.seconds;
  EXPECT_GT(s_cpu, 1.05);
  EXPECT_LT(s_cpu, 1.8);
  EXPECT_GT(s_fpga, 1.5);
  EXPECT_LT(s_fpga, 3.0);
}

TEST(LuCostOnly, HybridCapturesMostOfBaselineSum) {
  // Section 6.2: the hybrid reaches ~80% of the sum of the two baselines.
  const auto hybrid = lu_run(lu_cfg(DesignMode::Hybrid));
  const auto cpu = lu_run(lu_cfg(DesignMode::ProcessorOnly));
  const auto fpga = lu_run(lu_cfg(DesignMode::FpgaOnly));
  const double frac =
      hybrid.run.gflops() / (cpu.run.gflops() + fpga.run.gflops());
  EXPECT_GT(frac, 0.60);
  EXPECT_LT(frac, 1.00);
}

TEST(LuCostOnly, GflopsGrowWithBlockCount) {
  // Fig. 8: performance increases with n/b because opMM's share grows.
  double prev = 0.0;
  for (long long nb : {2, 4, 6, 8, 10}) {
    const auto rep =
        lu_run(lu_cfg(DesignMode::Hybrid, 3000 * nb));
    EXPECT_GT(rep.run.gflops(), prev) << "n/b = " << nb;
    prev = rep.run.gflops();
  }
}

TEST(LuCostOnly, Fig5CurveIsUShaped) {
  // Latency of one block MM falls from b_f = 0 to the optimum, then rises
  // past it; FPGA-only (b_f = b) is worse than processor-only (b_f = 0).
  const auto at = [&](long long bf) {
    core::MmConfig cfg;
    cfg.n = 3000;
    cfg.b = 3000;
    cfg.b_f = bf;
    return core::mm_functional(xd1(), cfg, {}, {}).run.seconds;
  };
  const long long opt = core::solve_mm_partition(xd1(), 3000).b_f;
  EXPECT_LT(at(opt), at(0));
  EXPECT_LT(at(opt), at(3000));
  EXPECT_LT(at(0), at(3000));
  // Monotone decrease towards the optimum from both sides (sampled).
  EXPECT_GT(at(256), at(512));
  EXPECT_GT(at(512), at(opt));
  EXPECT_LT(at(opt), at(2048));
  EXPECT_LT(at(2048), at(2944));
}

TEST(LuCostOnly, Fig6InterleaveSweepHasInteriorMinimum) {
  // Fig. 6: iteration-0 latency falls from l = 0, bottoms out around the
  // Eq. 5 solution, and does not blow up through l = 5.
  auto iter0 = [&](int l) {
    core::LuConfig cfg = lu_cfg(DesignMode::Hybrid);
    cfg.l = l;
    cfg.max_iterations = 1;
    return lu_run(cfg).run.seconds;
  };
  const double l0 = iter0(0);
  const auto li = core::solve_lu_interleave(
      xd1(), 3000, core::solve_mm_partition(xd1(), 3000),
      core::SendFanout::SerialAll);
  const double lopt = iter0(li.l);
  EXPECT_LT(lopt, l0);          // interleaving helps
  EXPECT_LT(iter0(1), l0);      // even a little helps
  EXPECT_GE(iter0(1), lopt - 1e-9);
  // Past the optimum the curve stays within a few percent (paper: "the
  // increase is not noticeable until l = 5").
  EXPECT_LT(iter0(li.l + 2), lopt * 1.10);
}

TEST(LuCostOnly, IterationLatenciesShrinkOverTime) {
  // s(k) is the latency of the first k iterations, so s(k + 1) - s(k) is
  // iteration k's.
  const auto s = [&](int k) {
    core::LuConfig cfg = lu_cfg(DesignMode::Hybrid);
    cfg.max_iterations = k;
    return lu_run(cfg).run.seconds;
  };
  // The trailing matrix shrinks every iteration.
  EXPECT_GT(s(1) - s(0), s(9) - s(8));
  // The last iteration is just the final opLU.
  EXPECT_NEAR(s(10) - s(9), 4.9, 0.1);
}

TEST(LuCostOnly, FlopAccountingMatchesClosedForm) {
  const auto rep = lu_run(lu_cfg(DesignMode::Hybrid));
  // Task-decomposed flops approach (2/3) n^3 (the opMS term adds O(n^2 b)).
  const double n = 30000.0;
  EXPECT_NEAR(rep.run.total_flops, (2.0 / 3.0) * n * n * n,
              0.02 * (2.0 / 3.0) * n * n * n);
}

TEST(LuCostOnly, ProcessorOnlyHasNoFpgaWork) {
  const auto rep =
      lu_run(lu_cfg(DesignMode::ProcessorOnly));
  EXPECT_EQ(rep.run.fpga_flops, 0.0);
  EXPECT_EQ(rep.run.coordination_events, 0u);
}

TEST(LuCostOnly, RequiresDivisibleBlocks) {
  EXPECT_THROW(lu_run(lu_cfg(DesignMode::Hybrid, 30001)),
               rcs::Error);
}

TEST(LuCostOnly, RejectsMoreBlocksThanTagsAddress) {
  // n/b = 513 outgrows the message tags: the run throws before it starts.
  EXPECT_THROW(lu_run(lu_cfg(DesignMode::Hybrid,
                             (core::kMaxBlocksPerSide + 1) * 8, 8)),
               rcs::Error);
}

TEST(LuCostOnly, LookaheadNeverSlower) {
  const auto cfg = lu_cfg(DesignMode::Hybrid);
  auto ahead = cfg;
  ahead.lookahead = true;
  const auto barriered = lu_run(cfg);
  const auto look = lu_run(ahead);
  EXPECT_LE(look.run.seconds, barriered.run.seconds * 1.0001);
  // With the paper's parameters the barrier costs real time.
  EXPECT_LT(look.run.seconds, barriered.run.seconds * 0.99);
  // Lookahead closes part of the gap to the §4.5 prediction.
  const auto pred = core::predict_lu(xd1(), cfg);
  EXPECT_GT(look.run.gflops() / pred.gflops(),
            barriered.run.gflops() / pred.gflops());
}

TEST(LuCostOnly, LookaheadStillBoundedByPrediction) {
  auto cfg = lu_cfg(DesignMode::Hybrid);
  cfg.lookahead = true;
  const auto look = lu_run(cfg);
  const auto pred = core::predict_lu(xd1(), cfg);
  EXPECT_LE(pred.latency_seconds(), look.run.seconds * 1.01);
}

// ---------------------------------------------------------------------------
// Floyd–Warshall

TEST(FwCostOnly, HybridReachesPaperScaleGflops) {
  const auto& rep = fw_paper(DesignMode::Hybrid);
  // Paper: 6.6 GFLOPS at n = 92160, b = 256.
  EXPECT_GT(rep.run.gflops(), 5.0);
  EXPECT_LT(rep.run.gflops(), 8.0);
}

TEST(FwCostOnly, SpeedupsMatchFig9Shape) {
  const auto& hybrid = fw_paper(DesignMode::Hybrid);
  const auto& cpu = fw_paper(DesignMode::ProcessorOnly);
  const auto& fpga = fw_paper(DesignMode::FpgaOnly);
  // FPGA-only beats processor-only for FW (1.92 vs 0.19 GFLOPS per node).
  EXPECT_GT(fpga.run.gflops(), cpu.run.gflops());
  // Paper: 5.8x over processor-only, 1.15x over FPGA-only.
  const double s_cpu = cpu.run.seconds / hybrid.run.seconds;
  const double s_fpga = fpga.run.seconds / hybrid.run.seconds;
  EXPECT_GT(s_cpu, 4.0);
  EXPECT_LT(s_cpu, 8.0);
  EXPECT_GT(s_fpga, 1.02);
  EXPECT_LT(s_fpga, 1.5);
}

TEST(FwCostOnly, HybridCapturesMostOfBaselineSum) {
  // Section 6.2: >= 95% of the baselines' sum for FW.
  const auto& hybrid = fw_paper(DesignMode::Hybrid);
  const auto& cpu = fw_paper(DesignMode::ProcessorOnly);
  const auto& fpga = fw_paper(DesignMode::FpgaOnly);
  const double frac =
      hybrid.run.gflops() / (cpu.run.gflops() + fpga.run.gflops());
  EXPECT_GT(frac, 0.85);
  EXPECT_LT(frac, 1.05);
}

TEST(FwCostOnly, GflopsRoughlyConstantInN) {
  // Section 6.2: FW performance is nearly independent of problem size.
  const auto small = fw_run(fw_cfg(DesignMode::Hybrid, 256 * 6 * 6));
  const auto large = fw_run(fw_cfg(DesignMode::Hybrid, 256 * 6 * 24));
  EXPECT_NEAR(small.run.gflops() / large.run.gflops(), 1.0, 0.25);
}

TEST(FwCostOnly, Fig7SweepShapes) {
  // Fig. 7 at n = 18432, b = 256: minimum at l1 = 2; l1 = 1 overloads the
  // FPGA; FPGA-only (l1 = 0) beats several hybrid points.
  auto iter1 = [&](long long l1) {
    core::FwConfig cfg = fw_cfg(DesignMode::Hybrid, 18432);
    cfg.l1 = l1;
    cfg.max_iterations = 1;
    return fw_run(cfg).run.seconds;
  };
  const double at2 = iter1(2);
  EXPECT_LT(at2, iter1(12));  // far better than CPU-only
  EXPECT_LT(at2, iter1(6));
  EXPECT_LT(at2, iter1(4));
  EXPECT_LT(at2, iter1(1));   // l1 = 1 overloads the FPGA
  EXPECT_LT(at2, iter1(0));   // and beats FPGA-only, slightly
  // FPGA-only beats mid-range hybrid splits (paper's observation).
  EXPECT_LT(iter1(0), iter1(4));
  // Latency decreases monotonically from l1 = 12 down to the optimum.
  EXPECT_GT(iter1(12), iter1(8));
  EXPECT_GT(iter1(8), iter1(4));
  EXPECT_GT(iter1(4), iter1(2));
}

TEST(FwCostOnly, FlopAccountingIs2NCubed) {
  const auto& rep = fw_paper(DesignMode::Hybrid);
  const double n = 92160.0;
  EXPECT_NEAR(rep.run.total_flops, 2.0 * n * n * n, 1e-6 * 2.0 * n * n * n);
}

TEST(FwCostOnly, ProcessorOnlyHasNoFpgaWork) {
  EXPECT_EQ(fw_paper(DesignMode::ProcessorOnly).run.fpga_flops, 0.0);
}

TEST(FwCostOnly, RejectsMoreBlocksThanTagsAddress) {
  // n/b = 720 outgrows the message tags, also for one iteration: the run
  // throws before it starts.
  auto cfg = fw_cfg(DesignMode::Hybrid, 184320);
  cfg.max_iterations = 1;
  EXPECT_THROW(fw_run(cfg), rcs::Error);
}

// ---------------------------------------------------------------------------
// Predictor (§4.5)

TEST(Predictor, LuPredictionBoundsSimulatedRun) {
  const auto cfg = lu_cfg(DesignMode::Hybrid);
  const auto pred = core::predict_lu(xd1(), cfg);
  const auto rep = lu_run(cfg);
  // The prediction assumes perfect overlap, so it is optimistic; Section 6.2
  // reports the implementation reaching >= 86% of it.
  EXPECT_LE(pred.latency_seconds(), rep.run.seconds * 1.001);
  EXPECT_GT(rep.run.gflops() / pred.gflops(), 0.70);
}

TEST(Predictor, FwPredictionBoundsSimulatedRun) {
  const auto cfg = fw_cfg(DesignMode::Hybrid);
  const auto pred = core::predict_fw(xd1(), cfg);
  const auto& rep = fw_paper(DesignMode::Hybrid);
  EXPECT_LE(pred.latency_seconds(), rep.run.seconds * 1.001);
  // Section 6.2: ~96% of the prediction for FW.
  EXPECT_GT(rep.run.gflops() / pred.gflops(), 0.85);
}

TEST(Predictor, LatencyIsMaxOfSides) {
  const auto pred = core::predict_fw(xd1(), fw_cfg(DesignMode::Hybrid));
  EXPECT_DOUBLE_EQ(pred.latency_seconds(), std::max(pred.t_tp, pred.t_tf));
  EXPECT_GT(pred.t_tp, 0.0);
  EXPECT_GT(pred.t_tf, 0.0);
}

TEST(Predictor, FpgaOnlyLuIsFpgaBound) {
  const auto pred = core::predict_lu(xd1(), lu_cfg(DesignMode::FpgaOnly));
  EXPECT_GT(pred.t_tf, 0.0);
}

}  // namespace
