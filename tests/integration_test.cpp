// Cross-module integration tests: end-to-end linear solves through the
// distributed hybrid LU and shortest-path queries through the distributed
// FW.

#include <cmath>

#include <gtest/gtest.h>

#include "core/rcs.hpp"

namespace core = rcs::core;
namespace la = rcs::linalg;
namespace gr = rcs::graph;
using core::DesignMode;
using core::SystemParams;

namespace {

SystemParams xd1_p(int p) {
  SystemParams sys = SystemParams::cray_xd1();
  sys.p = p;
  return sys;
}

TEST(Integration, SolveLinearSystemThroughHybridLu) {
  // Factor A with the distributed hybrid design, then solve A x = rhs with
  // forward/back substitution and check the residual.
  const std::size_t n = 64;
  const la::Matrix a = la::diagonally_dominant(n, 313);
  la::Matrix x_true = la::random_matrix(n, 1, 317);
  la::Matrix rhs(n, 1);
  la::gemm_overwrite(a.view(), x_true.view(), rhs.view());

  core::LuConfig cfg;
  cfg.n = n;
  cfg.b = 16;
  cfg.mode = DesignMode::Hybrid;
  const auto res = core::lu_functional(xd1_p(4), cfg, a);

  la::Matrix l, u;
  la::split_lu(res.factored.view(), l, u);
  la::Matrix y = rhs;
  la::trsm_left_lower_unit(l.view(), y.view());  // L y = rhs
  // U x = y: solve via transposed right-solve on a row vector copy.
  la::Matrix x = y;
  for (std::size_t j = n; j-- > 0;) {
    double acc = x(j, 0);
    for (std::size_t i = j + 1; i < n; ++i) acc -= u(j, i) * x(i, 0);
    x(j, 0) = acc / u(j, j);
  }
  EXPECT_LT(la::max_abs_diff(x.view(), x_true.view()), 1e-8);
}

TEST(Integration, ShortestPathQueriesThroughHybridFw) {
  const std::size_t n = 48;
  la::Matrix d0 = gr::grid_road_network(6, 8, 401);
  core::FwConfig cfg;
  cfg.n = n;
  cfg.b = 8;
  cfg.mode = DesignMode::Hybrid;
  const auto res = core::fw_functional(xd1_p(3), cfg, d0);

  // Distances obey symmetry (undirected roads) and the triangle inequality.
  for (std::size_t i = 0; i < n; i += 7) {
    for (std::size_t j = 0; j < n; j += 5) {
      EXPECT_NEAR(res.distances(i, j), res.distances(j, i), 1e-12);
      for (std::size_t k = 0; k < n; k += 11) {
        EXPECT_LE(res.distances(i, j),
                  res.distances(i, k) + res.distances(k, j) + 1e-12);
      }
    }
  }
  // And never exceed the direct edge where one exists.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (d0(i, j) != gr::kNoEdge) {
        EXPECT_LE(res.distances(i, j), d0(i, j) + 1e-12);
      }
    }
  }
}

TEST(Integration, FunctionalTimingIsDeterministic) {
  core::FwConfig cfg;
  cfg.n = 48;
  cfg.b = 8;
  cfg.mode = DesignMode::Hybrid;
  const SystemParams sys = xd1_p(3);
  const la::Matrix d0 = gr::random_digraph(48, 1001, 0.5);
  const auto r1 = core::fw_functional(sys, cfg, d0);
  const auto r2 = core::fw_functional(sys, cfg, d0);
  EXPECT_DOUBLE_EQ(r1.run.seconds, r2.run.seconds);
  EXPECT_EQ(r1.run.bytes_on_network, r2.run.bytes_on_network);
  EXPECT_TRUE(la::bit_equal(r1.distances.view(), r2.distances.view()));
}

TEST(Integration, HybridFwBeatsBaselinesAtPaperRatios) {
  // Functional plane with enough tasks per phase (L = 7) and a block size
  // large enough that DRAM streaming is cheap relative to the kernel
  // (t_mem/t_f = k/b = 1/4): Eq. 6 gives the CPU a share and the hybrid
  // beats both baselines; processor-only trails far behind (the FPGA is
  // ~5x the CPU per block task).
  const SystemParams sys = xd1_p(2);
  const la::Matrix d0 = gr::random_digraph(448, 1003, 0.6);
  core::FwConfig cfg;
  cfg.n = 448;
  cfg.b = 32;
  const auto mk = [&](DesignMode m) {
    core::FwConfig c = cfg;
    c.mode = m;
    return core::fw_functional(sys, c, d0).run.seconds;
  };
  const double hybrid = mk(DesignMode::Hybrid);
  const double cpu = mk(DesignMode::ProcessorOnly);
  const double fpga = mk(DesignMode::FpgaOnly);
  EXPECT_LT(hybrid, cpu);
  EXPECT_LT(hybrid, fpga);
  EXPECT_GT(cpu / hybrid, 2.0);  // CPU-only is far slower at FW
}

TEST(Integration, CapacityPlanningAcrossPresets) {
  // The design model must produce a finite, ordered prediction for every
  // preset: better hardware -> higher predicted GFLOPS.
  core::LuConfig cfg;
  cfg.n = 24000;
  cfg.b = 3000;
  cfg.mode = DesignMode::Hybrid;
  const auto xd1 = core::predict_lu(SystemParams::cray_xd1(), cfg);
  const auto xt3 = core::predict_lu(SystemParams::cray_xt3_drc(), cfg);
  EXPECT_GT(xd1.gflops(), 0.0);
  EXPECT_GT(xt3.gflops(), xd1.gflops());  // faster FPGA + network
}

TEST(Integration, TraceRecorderCapturesNodeActivity) {
  rcs::net::VirtualClock clock;
  rcs::sim::TraceRecorder trace(true);
  rcs::node::ComputeNode node(xd1_p(2).node_params_mm(), clock, &trace, "nX");
  node.cpu_compute(rcs::node::CpuKernel::Dgemm, 3.9e9, "one second");
  node.dram_to_fpga(1'040'000'000);
  node.fpga_submit(130e6, "one fpga second");
  node.fpga_wait();
  // cpu, dram, fpga, plus the exposed fpga_wait span the critical-path
  // analyzer attributes to the FPGA bucket.
  EXPECT_EQ(trace.spans().size(), 4u);
  auto busy = trace.busy_by_resource();
  EXPECT_NEAR(busy["nX.cpu"], 1.0, 1e-9);
  EXPECT_NEAR(busy["nX.dram"], 1.0, 1e-9);
  EXPECT_NEAR(busy["nX.fpga"], 1.0, 1e-9);
  // The whole device interval was exposed (the CPU went straight from
  // submit to wait), minus the coordination register write.
  EXPECT_NEAR(busy["nX.fpga_wait"], 1.0, 1e-4);
}

}  // namespace
