// Tests for the design model's partition solvers (Eq. 4/5/6), checked both
// as equations (plug the solution back, residual ~ 0) and against the
// paper's Section 6.1 operating points.

#include <gtest/gtest.h>

#include "core/partition.hpp"
#include "core/system.hpp"

namespace core = rcs::core;
using core::SystemParams;

namespace {

const SystemParams& xd1() {
  static const SystemParams sys = SystemParams::cray_xd1();
  return sys;
}

TEST(SystemParams, Xd1MatchesSection61) {
  const SystemParams& sys = xd1();
  EXPECT_EQ(sys.p, 6);
  EXPECT_DOUBLE_EQ(sys.network.bytes_per_s, 2e9);
  EXPECT_EQ(sys.mm_fpga.pe_count, 8);
  EXPECT_DOUBLE_EQ(sys.mm_fpga.clock_hz, 130e6);
  EXPECT_DOUBLE_EQ(sys.fw_fpga.clock_hz, 120e6);
  EXPECT_DOUBLE_EQ(sys.gpp.sustained(rcs::node::CpuKernel::Dgemm), 3.9e9);
}

TEST(MmPartition, SolutionMinimizesStripePeriod) {
  const auto part = core::solve_mm_partition(xd1(), 3000);
  // The chosen b_f must beat its k-step neighbours on the steady-state
  // stripe period (the quantity Eqs. 4-5 balance per stripe).
  const auto up = core::mm_partition_at(xd1(), 3000, part.b_f + 8);
  const auto down = core::mm_partition_at(xd1(), 3000, part.b_f - 8);
  EXPECT_LE(part.stripe_period_seconds(), up.stripe_period_seconds());
  EXPECT_LE(part.stripe_period_seconds(), down.stripe_period_seconds());
  // And the Eq. 4 residual at the solution is small: within one k-row step
  // of the exact crossing (|d residual / d b_f| * k).
  const double step = std::abs(up.residual - part.residual);
  EXPECT_LT(std::abs(part.residual), 20.0 * step);
}

TEST(MmPartition, DegenerateSmallBlocksFallBackToBoundary) {
  // At tiny b the DRAM stream costs more than computing a row anywhere;
  // Eq. 4 has no interior crossing and the solver must pick a boundary
  // (here: all-CPU, since the Opteron beats the stream rate).
  const auto part = core::solve_mm_partition(xd1().with_nodes(6), 24);
  EXPECT_TRUE(part.b_f == 0 || part.b_f == 24);
  const auto zero = core::mm_partition_at(xd1().with_nodes(6), 24, 0);
  EXPECT_LE(part.b_f == 0 ? zero.t_p_stripe : part.stripe_period_seconds(),
            zero.t_p_stripe + 1e-15);
}

TEST(MmPartition, SolutionInPaperBand) {
  // The paper operates at b_f = 1280 (its Eq. 4 evaluation); our solver's
  // exact optimum for the published constants is ~1085. Both sit in the
  // same band; the Fig. 5 curve is nearly flat between them.
  const auto part = core::solve_mm_partition(xd1(), 3000);
  EXPECT_GE(part.b_f, 960);
  EXPECT_LE(part.b_f, 1400);
  EXPECT_EQ(part.b_f % 8, 0);  // multiple of k
  EXPECT_EQ(part.b_f + part.b_p, 3000);
}

TEST(MmPartition, TimingComponentsMatchHandComputation) {
  const auto part = core::mm_partition_at(xd1(), 3000, 1280);
  // T_f = b_f * b / ((p-1) F_f)
  EXPECT_NEAR(part.t_f_stripe, 1280.0 * 3000 / (5 * 130e6), 1e-12);
  // T_comm = 2 b k b_w / B_n
  EXPECT_NEAR(part.t_comm_stripe, 2.0 * 3000 * 8 * 8 / 2e9, 1e-12);
  // T_mem = (b_f k + b k/(p-1)) b_w / B_d
  EXPECT_NEAR(part.t_mem_stripe, (1280.0 * 8 + 3000.0 * 8 / 5) * 8 / 1.04e9,
              1e-12);
  // T_p = 2 b_p b k / ((p-1) R)
  EXPECT_NEAR(part.t_p_stripe, 2.0 * 1720 * 3000 * 8 / (5 * 3.9e9), 1e-12);
}

TEST(MmPartition, NaiveSplitIgnoresTransfers) {
  // Without transfer terms Eq. 4 degenerates to the computing-power ratio
  // b_f/b_p = O_f F_f / (O_p F_p) of reference [22]: 2.08/3.9 -> b_f ~ 1043.
  const auto naive = core::solve_mm_partition(xd1(), 3000, false);
  EXPECT_NEAR(static_cast<double>(naive.b_f), 3000.0 * 2.08 / (2.08 + 3.9),
              8.0);
  // Including transfers shifts more work to the FPGA (the CPU also pays the
  // transfer times).
  const auto full = core::solve_mm_partition(xd1(), 3000, true);
  EXPECT_GE(full.b_f, naive.b_f);
}

TEST(MmPartition, BoundsRespected) {
  EXPECT_EQ(core::mm_partition_at(xd1(), 3000, 0).t_f_stripe, 0.0);
  EXPECT_EQ(core::mm_partition_at(xd1(), 3000, 3000).b_p, 0);
  EXPECT_THROW(core::mm_partition_at(xd1(), 3000, 3001), rcs::Error);
  EXPECT_THROW(core::mm_partition_at(xd1(), 3000, -1), rcs::Error);
}

TEST(MmPartition, FasterFpgaTakesMoreWork) {
  SystemParams sys = xd1();
  const auto base = core::solve_mm_partition(sys, 3000);
  sys.mm_fpga.clock_hz *= 2.0;
  const auto faster = core::solve_mm_partition(sys, 3000);
  EXPECT_GT(faster.b_f, base.b_f);
}

TEST(MmPartition, SramFitsPaperOperatingPoint) {
  const auto part = core::mm_partition_at(xd1(), 3000, 1280);
  // The paper allocates 8 MB of SRAM: b_f * b / (p-1) words must fit.
  EXPECT_LE(part.sram_words(6) * 8, 8u << 20);
}

TEST(LuInterleave, PaperModeGivesPaperL) {
  const auto part = core::mm_partition_at(xd1(), 3000, 1280);
  const auto li = core::solve_lu_interleave(xd1(), 3000, part,
                                            core::SendFanout::PaperSingle);
  // Eq. 5 with Table 1 latencies: max{4.9, 7.1, 7.1} / (2.215 - 0.072) = 3.3.
  EXPECT_NEAR(li.panel_op_seconds, 7.1, 1e-9);
  EXPECT_NEAR(li.worker_per_opmm, 2.215, 0.02);
  EXPECT_GE(li.l, 3);
  EXPECT_LE(li.l, 4);
}

TEST(LuInterleave, SerialFanoutCostsMore) {
  const auto part = core::mm_partition_at(xd1(), 3000, 1280);
  const auto paper = core::solve_lu_interleave(xd1(), 3000, part,
                                               core::SendFanout::PaperSingle);
  const auto serial = core::solve_lu_interleave(xd1(), 3000, part,
                                                core::SendFanout::SerialAll);
  EXPECT_DOUBLE_EQ(serial.sender_per_opmm, 5.0 * paper.sender_per_opmm);
  EXPECT_GE(serial.l, paper.l);  // slower distribution -> deeper interleave
}

TEST(LuInterleave, AtLeastOne) {
  SystemParams sys = xd1();
  sys.network.bytes_per_s = 1e3;  // absurdly slow network
  const auto part = core::mm_partition_at(sys, 3000, 1280);
  const auto li =
      core::solve_lu_interleave(sys, 3000, part, core::SendFanout::SerialAll);
  EXPECT_EQ(li.l, 1);
}

TEST(FwPartition, Eq6GivesPaperSplit) {
  // Section 6.1: n = 18432, b = 256, p = 6 -> L = 12, l1 : l2 = 1 : 5,
  // so l1 = 2 and l2 = 10.
  const auto part = core::solve_fw_partition(xd1(), 18432, 256);
  EXPECT_EQ(part.ops_per_phase, 12);
  EXPECT_EQ(part.l1, 2);
  EXPECT_EQ(part.l2, 10);
}

TEST(FwPartition, TimingComponentsMatchHandComputation) {
  const auto part = core::fw_partition_at(xd1(), 18432, 256, 2);
  const double b3 = 256.0 * 256.0 * 256.0;
  EXPECT_NEAR(part.t_p, 2.0 * b3 / 190e6, 1e-9);       // ~0.1766 s
  EXPECT_NEAR(part.t_f, 2.0 * b3 / (8 * 120e6), 1e-9); // ~0.0349 s
  EXPECT_NEAR(part.t_mem, 2.0 * 256 * 256 * 8 / 0.96e9, 1e-12);
  EXPECT_NEAR(part.t_comm, 256.0 * 256 * 8 / 2e9, 1e-12);
}

TEST(FwPartition, ResidualSmallAtSolution) {
  const auto part = core::solve_fw_partition(xd1(), 18432, 256);
  // Integer rounding leaves at most one task's worth of imbalance.
  EXPECT_LT(std::abs(part.residual), part.t_p + part.t_f);
  // Neighbours are no better balanced.
  const auto up = core::fw_partition_at(xd1(), 18432, 256, part.l1 + 1);
  const auto down = core::fw_partition_at(xd1(), 18432, 256, part.l1 - 1);
  EXPECT_LE(std::abs(part.residual), std::abs(up.residual) + 1e-9);
  EXPECT_LE(std::abs(part.residual), std::abs(down.residual) + 1e-9);
}

TEST(FwPartition, BaselineEndpoints) {
  const auto cpu = core::fw_partition_at(xd1(), 18432, 256, 12);
  EXPECT_EQ(cpu.l2, 0);
  const auto fpga = core::fw_partition_at(xd1(), 18432, 256, 0);
  EXPECT_EQ(fpga.l2, 12);
  EXPECT_THROW(core::fw_partition_at(xd1(), 18432, 256, 13), rcs::Error);
}

TEST(FwPartition, LayoutDivisibilityEnforced) {
  EXPECT_THROW(core::solve_fw_partition(xd1(), 1000, 256), rcs::Error);
}

TEST(FwPartition, SlowerCpuShiftsWorkToFpga) {
  SystemParams sys = xd1();
  sys.gpp.set_rate(rcs::node::CpuKernel::FwBlock, 50e6);
  const auto part = core::solve_fw_partition(sys, 18432, 256);
  EXPECT_LT(part.l1, 2);
}

TEST(PanelTimes, MatchTable1) {
  const auto pt = core::panel_times(xd1(), 3000);
  EXPECT_NEAR(pt.t_lu, 4.9, 1e-9);
  EXPECT_NEAR(pt.t_opl, 7.1, 1e-9);
  EXPECT_NEAR(pt.t_opu, 7.1, 1e-9);
}

TEST(Presets, AllPresetsSolveCleanly) {
  for (const SystemParams& sys :
       {SystemParams::cray_xd1(), SystemParams::cray_xt3_drc(),
        SystemParams::sgi_rasc()}) {
    const auto mm = core::solve_mm_partition(sys, 960);
    EXPECT_GE(mm.b_f, 0);
    EXPECT_LE(mm.b_f, 960);
    const long long n = 960LL * sys.p;
    const auto fw = core::solve_fw_partition(sys, n, 96);
    EXPECT_EQ(fw.l1 + fw.l2, fw.ops_per_phase);
  }
}

}  // namespace
