// Tests for the standalone hybrid matrix multiplication (reference [22]):
// functional bit-identity with the host gemm across node counts, modes and
// block sizes; cost-only properties at paper scale; trace capture.

#include <gtest/gtest.h>

#include "core/mm.hpp"
#include "core/system.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "sim/trace.hpp"

namespace core = rcs::core;
namespace la = rcs::linalg;
using core::DesignMode;
using core::SystemParams;

namespace {

SystemParams xd1_p(int p) {
  SystemParams sys = SystemParams::cray_xd1();
  sys.p = p;
  return sys;
}

la::Matrix reference_product(const la::Matrix& a, const la::Matrix& b) {
  la::Matrix c(a.rows(), b.cols());
  la::gemm(a.view(), b.view(), c.view());
  return c;
}

class MmFunctional
    : public ::testing::TestWithParam<std::tuple<int, int, int, DesignMode>> {
};

TEST_P(MmFunctional, BitIdenticalToHostGemm) {
  const auto [n, b, p, mode] = GetParam();
  const la::Matrix a = la::random_matrix(n, n, 500 + n + p, -2.0, 2.0);
  const la::Matrix bm = la::random_matrix(n, n, 600 + n + p, -2.0, 2.0);
  core::MmConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = mode;
  const auto res = core::mm_functional(xd1_p(p), cfg, a, bm);
  EXPECT_TRUE(la::bit_equal(res.c.view(), reference_product(a, bm).view()))
      << "n=" << n << " b=" << b << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MmFunctional,
    ::testing::Values(
        std::tuple{32, 32, 1, DesignMode::Hybrid},   // single node, 1 block
        std::tuple{64, 32, 1, DesignMode::Hybrid},   // single node, tiled
        std::tuple{48, 48, 1, DesignMode::FpgaOnly},
        std::tuple{48, 48, 1, DesignMode::ProcessorOnly},
        std::tuple{32, 32, 2, DesignMode::Hybrid},   // 1 worker
        std::tuple{64, 32, 3, DesignMode::Hybrid},   // tiled, 2 workers
        std::tuple{64, 32, 4, DesignMode::Hybrid},
        std::tuple{96, 32, 6, DesignMode::Hybrid},
        std::tuple{64, 32, 4, DesignMode::FpgaOnly},
        std::tuple{64, 32, 4, DesignMode::ProcessorOnly},
        std::tuple{80, 16, 5, DesignMode::Hybrid}),  // uneven column shares
    [](const auto& pinfo) {
      return "n" + std::to_string(std::get<0>(pinfo.param)) + "b" +
             std::to_string(std::get<1>(pinfo.param)) + "p" +
             std::to_string(std::get<2>(pinfo.param)) +
             std::string(core::to_string(std::get<3>(pinfo.param)))
                 .substr(0, 4);
    });

TEST(MmFunctionalDetail, SoftFpMatchesNative) {
  const la::Matrix a = la::random_matrix(48, 48, 701, -3.0, 3.0);
  const la::Matrix bm = la::random_matrix(48, 48, 703, -3.0, 3.0);
  core::MmConfig cfg;
  cfg.n = 48;
  cfg.b = 24;
  cfg.mode = DesignMode::Hybrid;
  cfg.b_f = 16;
  const auto nat = core::mm_functional(xd1_p(3), cfg, a, bm, false);
  const auto soft = core::mm_functional(xd1_p(3), cfg, a, bm, true);
  EXPECT_TRUE(la::bit_equal(nat.c.view(), soft.c.view()));
}

TEST(MmFunctionalDetail, SingleNodeHybridSplitsWork) {
  const la::Matrix a = la::random_matrix(64, 64, 705);
  const la::Matrix bm = la::random_matrix(64, 64, 707);
  core::MmConfig cfg;
  cfg.n = 64;
  cfg.b = 64;
  cfg.mode = DesignMode::Hybrid;
  cfg.b_f = 32;
  const auto res = core::mm_functional(xd1_p(1), cfg, a, bm);
  EXPECT_GT(res.run.cpu_flops, 0.0);
  EXPECT_GT(res.run.fpga_flops, 0.0);
  EXPECT_NEAR(res.run.total_flops, 2.0 * 64 * 64 * 64, 1.0);
  EXPECT_GT(res.run.coordination_events, 0u);
  EXPECT_GT(res.run.seconds, 0.0);
}

TEST(MmFunctionalDetail, TraceCapturesBothSides) {
  const la::Matrix a = la::random_matrix(32, 32, 709);
  const la::Matrix bm = la::random_matrix(32, 32, 711);
  core::MmConfig cfg;
  cfg.n = 32;
  cfg.b = 32;
  cfg.mode = DesignMode::Hybrid;
  cfg.b_f = 16;
  rcs::sim::TraceRecorder trace(true);
  core::mm_functional(xd1_p(2), cfg, a, bm, false, &trace);
  const auto busy = trace.busy_by_resource();
  EXPECT_GT(busy.count("node1.cpu"), 0u);
  EXPECT_GT(busy.count("node1.fpga"), 0u);
  EXPECT_GT(busy.count("node1.dram"), 0u);
}

TEST(MmFunctionalDetail, DmaFanoutSameResultLessSenderTime) {
  const la::Matrix a = la::random_matrix(96, 96, 801);
  const la::Matrix bm = la::random_matrix(96, 96, 803);
  core::MmConfig cfg;
  cfg.n = 96;
  cfg.b = 48;
  cfg.mode = DesignMode::Hybrid;
  cfg.b_f = 24;
  core::MmConfig dma = cfg;
  dma.fanout = core::SendFanout::PaperSingle;
  // The root only distributes and stores, so at the XD1's zero message
  // latency its NIC serializes the fan-out exactly as its CPU would. With a
  // per-message latency the NIC overlaps each setup with the previous
  // transfer and the workers' operands land sooner.
  SystemParams sys = xd1_p(4);
  sys.network.latency_s = 1e-6;
  const auto serial = core::mm_functional(sys, cfg, a, bm);
  const auto viadma = core::mm_functional(sys, dma, a, bm);
  EXPECT_TRUE(la::bit_equal(serial.c.view(), viadma.c.view()));
  EXPECT_LT(viadma.run.seconds, serial.run.seconds);
}

TEST(MmFunctionalDetail, RejectsBadShapes) {
  const la::Matrix a = la::random_matrix(32, 32, 713);
  const la::Matrix bad = la::random_matrix(32, 16, 715);
  core::MmConfig cfg;
  cfg.n = 32;
  cfg.b = 16;
  EXPECT_THROW(core::mm_functional(xd1_p(2), cfg, a, bad), rcs::Error);
  cfg.b = 12;  // does not divide n
  EXPECT_THROW(core::mm_functional(xd1_p(2), cfg, a, a), rcs::Error);
}

// ---------------------------------------------------------------------------
// Cost-only runs at paper scale

TEST(MmCostOnly, SingleNodeHybridApproachesCombinedThroughput) {
  // [22]'s headline: the hybrid multiply sustains close to the sum of the
  // CPU's 3.9 and the FPGA's 2.08 GFLOPS on one XD1 node.
  core::MmConfig cfg;
  cfg.n = 3000;
  cfg.b = 3000;
  cfg.mode = DesignMode::Hybrid;
  const auto rep = core::mm_functional(xd1_p(1), cfg, {}, {});
  EXPECT_GT(rep.run.gflops(), 4.0);
  EXPECT_LT(rep.run.gflops(), 3.9 + 2.08 + 0.1);
}

TEST(MmCostOnly, SingleNodeHybridBeatsBothSides) {
  core::MmConfig cfg;
  cfg.n = 3000;
  cfg.b = 3000;
  auto at = [&](DesignMode m) {
    core::MmConfig c = cfg;
    c.mode = m;
    return core::mm_functional(xd1_p(1), c, {}, {}).run.gflops();
  };
  EXPECT_GT(at(DesignMode::Hybrid), at(DesignMode::ProcessorOnly));
  EXPECT_GT(at(DesignMode::Hybrid), at(DesignMode::FpgaOnly));
  EXPECT_GT(at(DesignMode::ProcessorOnly), at(DesignMode::FpgaOnly));
}

TEST(MmCostOnly, MultiNodeScalesWithWorkers) {
  core::MmConfig cfg;
  cfg.n = 30000;
  cfg.b = 3000;
  cfg.mode = DesignMode::Hybrid;
  const auto p4 = core::mm_functional(xd1_p(4), cfg, {}, {});
  const auto p6 = core::mm_functional(xd1_p(6), cfg, {}, {});
  EXPECT_GT(p6.run.gflops(), p4.run.gflops());
}

TEST(MmCostOnly, MatchesTheFullRun) {
  core::MmConfig cfg;
  cfg.n = 96;
  cfg.b = 48;
  cfg.mode = DesignMode::Hybrid;
  cfg.b_f = 24;
  const SystemParams sys = xd1_p(3);
  const la::Matrix a = la::random_matrix(96, 96, 801);
  const la::Matrix bm = la::random_matrix(96, 96, 803);
  const auto fn = core::mm_functional(sys, cfg, a, bm);
  const auto cost = core::mm_functional(sys, cfg, {}, {});
  EXPECT_EQ(cost.run.seconds, fn.run.seconds);
  EXPECT_EQ(cost.run.bytes_on_network, fn.run.bytes_on_network);
  EXPECT_EQ(cost.run.total_flops, fn.run.total_flops);
  EXPECT_TRUE(cost.c.empty());
}

TEST(MmCostOnly, FlopAccountingIs2NCubed) {
  core::MmConfig cfg;
  cfg.n = 6000;
  cfg.b = 3000;
  cfg.mode = DesignMode::Hybrid;
  const auto rep = core::mm_functional(xd1_p(6), cfg, {}, {});
  const double n3 = 6000.0 * 6000.0 * 6000.0;
  // 2 n^3 multiply-adds, plus the root's n^2 memory-bound stores of C.
  EXPECT_DOUBLE_EQ(rep.run.total_flops, 2.0 * n3 + 6000.0 * 6000.0);
}

}  // namespace
