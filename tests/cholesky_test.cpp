// Tests for the Cholesky substrate kernels and the hybrid distributed
// design: kernel correctness, blocked == distributed bit-identity, residual
// bounds, mode equivalence, and analytic-plane properties.

#include <cmath>

#include <gtest/gtest.h>

#include "core/cholesky.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/generate.hpp"

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

// ---------------------------------------------------------------------------
// linalg kernels

TEST(Potrf, FactorsKnownMatrix) {
  // A = [[4, 2], [2, 5]] -> L = [[2, 0], [1, 2]].
  la::Matrix a(2, 2);
  a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 5;
  la::potrf_unblocked(a.view());
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);  // upper triangle untouched
}

TEST(Potrf, ResidualTinyOnRandomSpd) {
  const la::Matrix a = la::spd_matrix(48, 11);
  la::Matrix f = a;
  la::potrf_unblocked(f.view());
  EXPECT_LT(la::cholesky_residual(a.view(), f.view()), 1e-13);
}

TEST(Potrf, RejectsIndefiniteMatrix) {
  la::Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;  // eigenvalue -1
  EXPECT_THROW(la::potrf_unblocked(a.view()), rcs::Error);
}

TEST(TrsmRLT, SolvesAgainstLTransposed) {
  const std::size_t n = 16, m = 9;
  la::Matrix spd = la::spd_matrix(n, 13);
  la::potrf_unblocked(spd.view());  // L in lower triangle
  la::Matrix x = la::random_matrix(m, n, 17);
  la::Matrix bm(m, n);
  // B = X * L^T: b[r][j] = sum_k x[r][k] * L[j][k] for k <= j.
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::size_t k = 0; k <= j; ++k) acc += x(r, k) * spd(j, k);
      bm(r, j) = acc;
    }
  la::trsm_right_lower_transposed(spd.view(), bm.view());
  EXPECT_LT(la::max_abs_diff(bm.view(), x.view()), 1e-10);
}

TEST(GemmNT, MatchesGemmAgainstExplicitTranspose) {
  const la::Matrix a = la::random_matrix(7, 5, 19);
  const la::Matrix b = la::random_matrix(9, 5, 23);
  la::Matrix bt(5, 9);
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t j = 0; j < 5; ++j) bt(j, i) = b(i, j);
  la::Matrix c1(7, 9), c2(7, 9);
  la::gemm_nt(a.view(), b.view(), c1.view());
  la::gemm(a.view(), bt.view(), c2.view());
  EXPECT_TRUE(la::bit_equal(c1.view(), c2.view()));
}

class PotrfBlocked : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PotrfBlocked, ResidualTiny) {
  const auto [n, b] = GetParam();
  const la::Matrix a = la::spd_matrix(n, 100 + n);
  la::Matrix f = a;
  la::potrf_blocked(f.view(), b);
  EXPECT_LT(la::cholesky_residual(a.view(), f.view()), 1e-12)
      << "n=" << n << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfBlocked,
                         ::testing::Values(std::tuple{16, 4}, std::tuple{32, 8},
                                           std::tuple{48, 16},
                                           std::tuple{64, 64},
                                           std::tuple{60, 12}));

// ---------------------------------------------------------------------------
// Distributed functional design

class CholFunctional
    : public ::testing::TestWithParam<std::tuple<int, int, int, DesignMode>> {
};

TEST_P(CholFunctional, BitIdenticalToSequentialBlocked) {
  const auto [n, b, p, mode] = GetParam();
  const la::Matrix a = la::spd_matrix(n, 300 + n + p);
  la::Matrix ref = a;
  la::potrf_blocked(ref.view(), b);

  core::CholConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = mode;
  const auto res = core::cholesky_functional(xd1_p(p), cfg, a);
  EXPECT_TRUE(la::bit_equal(res.factored.view(), ref.view()))
      << "n=" << n << " b=" << b << " p=" << p << " diff="
      << la::max_abs_diff(res.factored.view(), ref.view());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CholFunctional,
    ::testing::Values(std::tuple{32, 8, 2, DesignMode::Hybrid},
                      std::tuple{48, 16, 3, DesignMode::Hybrid},
                      std::tuple{64, 16, 4, DesignMode::Hybrid},
                      std::tuple{96, 24, 6, DesignMode::Hybrid},
                      std::tuple{64, 16, 4, DesignMode::ProcessorOnly},
                      std::tuple{64, 16, 4, DesignMode::FpgaOnly},
                      std::tuple{40, 8, 5, DesignMode::Hybrid},
                      std::tuple{16, 16, 2, DesignMode::Hybrid}),
    [](const auto& pinfo) {
      return "n" + std::to_string(std::get<0>(pinfo.param)) + "b" +
             std::to_string(std::get<1>(pinfo.param)) + "p" +
             std::to_string(std::get<2>(pinfo.param)) +
             std::string(core::to_string(std::get<3>(pinfo.param)))
                 .substr(0, 4);
    });

TEST(CholFunctionalDetail, SoftFpMatchesNative) {
  const la::Matrix a = la::spd_matrix(32, 41);
  core::CholConfig cfg;
  cfg.n = 32;
  cfg.b = 8;
  cfg.mode = DesignMode::Hybrid;
  cfg.b_f = 8;
  const auto nat = core::cholesky_functional(xd1_p(3), cfg, a, false);
  const auto soft = core::cholesky_functional(xd1_p(3), cfg, a, true);
  EXPECT_TRUE(la::bit_equal(nat.factored.view(), soft.factored.view()));
}

TEST(CholFunctionalDetail, ResidualTiny) {
  const la::Matrix a = la::spd_matrix(64, 43);
  core::CholConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = DesignMode::Hybrid;
  const auto res = core::cholesky_functional(xd1_p(4), cfg, a);
  EXPECT_LT(la::cholesky_residual(a.view(), res.factored.view()), 1e-12);
}

TEST(CholFunctionalDetail, ReportIsSelfConsistent) {
  const la::Matrix a = la::spd_matrix(64, 45);
  core::CholConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = DesignMode::Hybrid;
  cfg.b_f = 8;
  const auto res = core::cholesky_functional(xd1_p(4), cfg, a);
  EXPECT_GT(res.run.seconds, 0.0);
  EXPECT_GT(res.run.fpga_flops, 0.0);
  EXPECT_GT(res.run.cpu_flops, 0.0);
  EXPECT_GT(res.run.coordination_events, 0u);
  // Total flops ~ n^3/3 leading order (plus the O(n^2 b) panel terms).
  const double n3 = 64.0 * 64.0 * 64.0;
  EXPECT_GT(res.run.total_flops, n3 / 3.0 * 0.8);
  EXPECT_LT(res.run.total_flops, n3 * 1.5);
}

TEST(CholFunctionalDetail, DmaFanoutSameResultLessSenderTime) {
  const la::Matrix a = la::spd_matrix(96, 47);
  core::CholConfig cfg;
  cfg.n = 96;
  cfg.b = 24;
  cfg.mode = DesignMode::Hybrid;
  cfg.b_f = 8;
  cfg.l = 2;
  core::CholConfig dma = cfg;
  dma.fanout = core::SendFanout::PaperSingle;
  const auto serial = core::cholesky_functional(xd1_p(4), cfg, a);
  const auto viadma = core::cholesky_functional(xd1_p(4), dma, a);
  EXPECT_TRUE(la::bit_equal(serial.factored.view(), viadma.factored.view()));
  // The stripes ride the NIC, so the panel CPU moves on to its next trsm.
  EXPECT_LT(viadma.run.seconds, serial.run.seconds);
}

// ---------------------------------------------------------------------------
// Analytic plane

TEST(CholAnalytic, PaperScaleUsefulGflopsBelowLu) {
  // Cholesky has half the trailing work per panel op, so the serial panel
  // chain weighs more and the *useful* rate (n^3/3 flops over the runtime)
  // lands below LU's ~19 GFLOPS. The executed rate is higher because the
  // design computes diagonal trailing blocks as full squares (as the
  // blocked reference does) — that gap is asserted separately below.
  core::CholConfig cfg;
  cfg.n = 30000;
  cfg.b = 3000;
  cfg.mode = DesignMode::Hybrid;
  const auto rep = core::cholesky_analytic(SystemParams::cray_xd1(), cfg);
  const double useful =
      30000.0 * 30000.0 * 30000.0 / 3.0 / rep.run.seconds / 1e9;
  EXPECT_GT(useful, 6.0);
  EXPECT_LT(useful, 19.2);
  EXPECT_GT(rep.run.gflops(), useful);  // executed > useful (syrk waste)
}

TEST(CholAnalytic, HybridBeatsFpgaOnly) {
  core::CholConfig cfg;
  cfg.n = 30000;
  cfg.b = 3000;
  auto at = [&](DesignMode m) {
    core::CholConfig c = cfg;
    c.mode = m;
    return core::cholesky_analytic(SystemParams::cray_xd1(), c).run.seconds;
  };
  EXPECT_LT(at(DesignMode::Hybrid), at(DesignMode::FpgaOnly));
  EXPECT_LE(at(DesignMode::Hybrid), at(DesignMode::ProcessorOnly) * 1.0001);
}

TEST(CholAnalytic, FunctionalAndAnalyticAgree) {
  core::CholConfig cfg;
  cfg.n = 96;
  cfg.b = 24;
  cfg.mode = DesignMode::Hybrid;
  cfg.b_f = 8;
  cfg.l = 2;
  const SystemParams sys = xd1_p(4);
  const la::Matrix a = la::spd_matrix(96, 47);
  const auto fn = core::cholesky_functional(sys, cfg, a);
  const auto an = core::cholesky_analytic(sys, cfg);
  EXPECT_NEAR(fn.run.seconds / an.run.seconds, 1.0, 0.4);
}

TEST(CholAnalytic, FlopAccountingExecutedVsUseful) {
  // Executed flops = n^3/3 useful + the full-square diagonal trailing
  // blocks (one extra b^3 per diagonal task: sum_t m = 45 of them at
  // b = 3000, n/b = 10) + O(n^2 b) panel/opMS terms.
  core::CholConfig cfg;
  cfg.n = 30000;
  cfg.b = 3000;
  cfg.mode = DesignMode::Hybrid;
  const auto rep = core::cholesky_analytic(SystemParams::cray_xd1(), cfg);
  const double b3 = 3000.0 * 3000.0 * 3000.0;
  const double n3 = 30000.0 * 30000.0 * 30000.0;
  const double expected = n3 / 3.0 + 45.0 * b3;  // leading terms
  EXPECT_NEAR(rep.run.total_flops, expected, 0.02 * expected);
}

}  // namespace
