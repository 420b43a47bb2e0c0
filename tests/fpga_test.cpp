// Tests for the FPGA device and kernel models: capacity checks, the [21]
// matrix-multiply cycle formulae, the [18] Floyd–Warshall cycle formulae,
// and bit-fidelity of the functional kernels against the host paths (both
// native-FPU and soft-IEEE-754 backends).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/span2d.hpp"
#include "fpga/device.hpp"
#include "fpga/fw_kernel.hpp"
#include "fpga/matmul_array.hpp"
#include "fpga/pe_cycle_sim.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "obs/provenance.hpp"

namespace fpga = rcs::fpga;
namespace la = rcs::linalg;
namespace gr = rcs::graph;
namespace obs = rcs::obs;
using rcs::Span2D;

namespace {

TEST(Device, Xc2vp50MatmulParameters) {
  const auto d = fpga::DeviceConfig::xc2vp50_matmul();
  EXPECT_EQ(d.pe_count, 8);            // k = 8
  EXPECT_EQ(d.ops_per_cycle(), 16);    // O_f = 16
  EXPECT_DOUBLE_EQ(d.clock_hz, 130e6); // F_f = 130 MHz
  EXPECT_NEAR(d.peak_flops(), 2.08e9, 1e6);
  EXPECT_DOUBLE_EQ(d.dram_bytes_per_s, 1.04e9);  // B_d
}

TEST(Device, Xc2vp50FwParameters) {
  const auto d = fpga::DeviceConfig::xc2vp50_floyd_warshall();
  EXPECT_EQ(d.pe_count, 8);
  EXPECT_DOUBLE_EQ(d.clock_hz, 120e6);
  EXPECT_DOUBLE_EQ(d.dram_bytes_per_s, 0.96e9);
}

TEST(Device, SecondsForCycles) {
  const auto d = fpga::DeviceConfig::xc2vp50_matmul();
  EXPECT_DOUBLE_EQ(d.seconds_for_cycles(130e6), 1.0);
}

TEST(Device, SramCapacityEnforced) {
  const auto d = fpga::DeviceConfig::xc2vp50_matmul();
  EXPECT_NO_THROW(fpga::require_sram(d, (8u << 20) / 8, "fits exactly"));
  EXPECT_THROW(fpga::require_sram(d, (8u << 20) / 8 + 1, "too big"),
               rcs::Error);
}

TEST(MatMulArray, CycleFormulaMatchesPaper) {
  fpga::MatMulArray array(fpga::DeviceConfig::xc2vp50_matmul());
  const long long k = array.k();
  // One k x k submatrix multiply has effective latency k^2 cycles [21].
  EXPECT_EQ(array.cycles(k, k, k), k * k);
  // The paper's stripe shape: b_f x k times k x (b/(p-1)) on 5 workers
  // costs b_f * b / (p-1) cycles.
  const long long b = 3000, b_f = 1280, p = 6;
  EXPECT_EQ(array.cycles(b_f, k, b / (p - 1)), b_f * b / (p - 1));
  // A whole opMM (b/k stripes) therefore costs b_f * b^2 / ((p-1) k).
  EXPECT_EQ((b / k) * array.cycles(b_f, k, b / (p - 1)),
            b_f * b * b / ((p - 1) * k));
}

TEST(MatMulArray, CyclesRoundUpPartialTiles) {
  fpga::MatMulArray array(fpga::DeviceConfig::xc2vp50_matmul());
  EXPECT_EQ(array.cycles(1, 1, 1), 64);   // one k x k tile minimum
  EXPECT_EQ(array.cycles(9, 8, 8), 128);  // 2 tiles in m
  EXPECT_EQ(array.cycles(0, 8, 8), 0);
  EXPECT_THROW(array.cycles(-1, 8, 8), rcs::Error);
}

TEST(MatMulArray, SecondsScaleWithClock) {
  auto dev = fpga::DeviceConfig::xc2vp50_matmul();
  fpga::MatMulArray a1(dev);
  dev.clock_hz *= 2;
  fpga::MatMulArray a2(dev);
  EXPECT_DOUBLE_EQ(a1.seconds(64, 64, 64), 2.0 * a2.seconds(64, 64, 64));
}

TEST(MatMulArray, FunctionalMatchesHostGemmBitwise) {
  fpga::MatMulArray array(fpga::DeviceConfig::xc2vp50_matmul());
  la::Matrix c = la::random_matrix(24, 16, 1);
  la::Matrix d = la::random_matrix(16, 20, 2);
  la::Matrix e1 = la::random_matrix(24, 20, 3);
  la::Matrix e2 = e1;
  array.multiply_accumulate(c.view(), d.view(), e1.view());
  la::gemm(c.view(), d.view(), e2.view());
  EXPECT_TRUE(la::bit_equal(e1.view(), e2.view()));
}

TEST(MatMulArray, SoftBackendMatchesNativeBitwise) {
  fpga::MatMulArray array(fpga::DeviceConfig::xc2vp50_matmul());
  la::Matrix c = la::random_matrix(12, 10, 4, -5.0, 5.0);
  la::Matrix d = la::random_matrix(10, 8, 5, -5.0, 5.0);
  la::Matrix e1(12, 8), e2(12, 8);
  array.multiply_accumulate(c.view(), d.view(), e1.view());
  array.multiply_accumulate_soft(c.view(), d.view(), e2.view());
  EXPECT_TRUE(la::bit_equal(e1.view(), e2.view()));
}

TEST(MatMulArray, StreamedPathMatchesNaiveAtAnySize) {
  // Native products stream through the packed pipeline at every size; a
  // small 16^3 product and an 80^3 one must both be bit-identical to the
  // naive ascending-l accumulation.
  fpga::MatMulArray array(fpga::DeviceConfig::xc2vp50_matmul());
  for (std::size_t n : {std::size_t{16}, std::size_t{80}}) {
    const la::Matrix c = la::random_matrix(n, n, 31);
    const la::Matrix d = la::random_matrix(n, n, 32);
    la::Matrix e_ref = la::random_matrix(n, n, 33);
    la::Matrix e = e_ref;
    la::gemm_naive(c.view(), d.view(), e_ref.view());
    array.multiply_accumulate(c.view(), d.view(), e.view());
    EXPECT_TRUE(la::bit_equal(e.view(), e_ref.view())) << "n=" << n;
  }
}

TEST(MatMulArray, StreamedNtMatchesElementwiseRecompute) {
  // element() recomputes entries with the documented ascending-l order; the
  // streamed NT path must reproduce exactly those bits.
  fpga::MatMulArray array(fpga::DeviceConfig::xc2vp50_matmul());
  const std::size_t n = 80;
  const la::Matrix c = la::random_matrix(n, n, 34);
  const la::Matrix dt = la::random_matrix(n, n, 35);
  const la::Matrix e0 = la::random_matrix(n, n, 36);
  la::Matrix e = e0;
  array.multiply_accumulate_nt(c.view(), dt.view(), e.view());
  for (std::size_t i : {std::size_t{0}, std::size_t{13}, std::size_t{79}}) {
    for (std::size_t j : {std::size_t{0}, std::size_t{41}, std::size_t{79}}) {
      EXPECT_EQ(e(i, j), array.element(c.view(), dt.view(), i, j, e0(i, j),
                                       /*soft=*/false, /*nt=*/true))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(MatMulArray, ResultTileMustFitSram) {
  auto dev = fpga::DeviceConfig::xc2vp50_matmul();
  dev.sram_bytes = 64;  // 8 words only
  fpga::MatMulArray array(dev);
  la::Matrix c = la::random_matrix(4, 4, 6);
  la::Matrix d = la::random_matrix(4, 4, 7);
  la::Matrix e(4, 4);  // 16 words > 8
  EXPECT_THROW(array.multiply_accumulate(c.view(), d.view(), e.view()),
               rcs::Error);
}

TEST(MatMulArray, InputBytesFormula) {
  fpga::MatMulArray array(fpga::DeviceConfig::xc2vp50_matmul());
  EXPECT_EQ(array.input_bytes(10, 8, 5), (80u + 40u) * 8u);
  EXPECT_EQ(array.sram_words(10, 5), 50u);
}

TEST(FwKernel, CycleFormulaMatchesPaper) {
  fpga::FwKernel kernel(fpga::DeviceConfig::xc2vp50_floyd_warshall());
  // Latency of a b x b block task is 2 b^3 / k cycles [18].
  EXPECT_EQ(kernel.cycles(256), 2LL * 256 * 256 * 256 / 8);
  EXPECT_EQ(kernel.cycles(0), 0);
  // At 120 MHz this is the paper's ~35 ms per block.
  EXPECT_NEAR(kernel.seconds(256), 0.03495, 5e-4);
}

TEST(FwKernel, MemoryFootprints) {
  fpga::FwKernel kernel(fpga::DeviceConfig::xc2vp50_floyd_warshall());
  EXPECT_EQ(kernel.sram_words(256), 2u * 256u * 256u);
  EXPECT_EQ(kernel.input_bytes(256), 2u * 256u * 256u * 8u);
  // b = 256 blocks need 2 b^2 words = 1 MB of SRAM: fits the 8 MB budget.
  EXPECT_NO_THROW(kernel.require_fits(256));
  // The paper's constraint 2 b^2 <= 8 MB / b_w gives b <= 724.
  EXPECT_NO_THROW(kernel.require_fits(724));
  EXPECT_THROW(kernel.require_fits(725), rcs::Error);
}

using Task = std::tuple<rcs::Span2D<double>, rcs::Span2D<const double>,
                        rcs::Span2D<const double>>;

// Runs one block task through FwKernel's NativeFp row loop and through
// graph::fw_block on two copies of the same storage. `views` makes the task's
// (c, a, b) in a copy; operands it takes from elsewhere are never written.
// All of the storage is compared, so a write outside c fails too.
template <typename Views>
void expect_fw_block_bitwise(const la::Matrix& storage, Views views,
                             const std::string& what) {
  const fpga::FwKernel kernel(fpga::DeviceConfig::xc2vp50_floyd_warshall());
  la::Matrix ref = storage;
  la::Matrix got = storage;
  const auto [c, a, b] = views(ref);
  kernel.run_block(c, a, b);
  const auto [c2, a2, b2] = views(got);
  gr::fw_block(c2, a2, b2);
  EXPECT_TRUE(la::bit_equal(ref.view(), got.view()))
      << what << ", fw_block at " << obs::kernel_isa();
}

// Distances holding the entries min-plus must carry through exactly: +inf
// (no edge), NaN, -0.0 and +0.0, and negative weights.
la::Matrix special_distances(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  la::Matrix d = la::random_matrix(rows, cols, seed, -1.0, 9.0);
  rcs::Rng rng(seed);
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double u = rng.uniform();
    if (u < 0.05) {
      d.data()[i] = gr::kNoEdge;
    } else if (u < 0.07) {
      d.data()[i] = std::numeric_limits<double>::quiet_NaN();
    } else if (u < 0.09) {
      d.data()[i] = -0.0;
    } else if (u < 0.11) {
      d.data()[i] = 0.0;
    }
  }
  return d;
}

// graph::fw_block builds at the hot-kernel ISA (obs::kernel_isa()) and
// keeps a tile of c in registers for op3 and whole rows for op22 where a row
// fits, while FwKernel's NativeFp row loop builds at the baseline ISA: the
// two must agree bit for bit on every shape and aliasing form the blocked
// algorithm uses, tile and vector remainders included.
TEST(FwKernel, FunctionalMatchesHostKernelBitwise) {
  for (const std::size_t n : {16u, 67u}) {
    const la::Matrix pivot = gr::random_digraph(n, 10, 0.5);
    const la::Matrix d = gr::random_digraph(n, 11, 0.5);
    const la::Matrix a = gr::random_digraph(n, 12, 0.5);
    const la::Matrix b = gr::random_digraph(n, 13, 0.5);
    const std::string shape = std::to_string(n) + "x" + std::to_string(n);
    expect_fw_block_bitwise(
        d, [&](la::Matrix& s) { return Task{s.view(), a.view(), b.view()}; },
        "op3 (c, a, b disjoint), " + shape);
    expect_fw_block_bitwise(
        pivot,
        [&](la::Matrix& s) { return Task{s.view(), s.view(), s.view()}; },
        "op1 (c = a = b), " + shape);
    expect_fw_block_bitwise(
        b,
        [&](la::Matrix& s) { return Task{s.view(), pivot.view(), s.view()}; },
        "op21 (c = b), " + shape);
    expect_fw_block_bitwise(
        a,
        [&](la::Matrix& s) { return Task{s.view(), s.view(), pivot.view()}; },
        "op22 (c = a), " + shape);
  }

  // The four forms on fw_functional's layout: a rank's local store of n
  // rows and four block-columns (row stride 4b; n = 1024, b = 64), with D_tt
  // and D_qt as contiguous packed blocks. The pivot block has a negative
  // diagonal entry, and every operand holds +inf, NaN and -0.0.
  constexpr std::size_t b = 64;
  const la::Matrix store = special_distances(16 * b, 4 * b, 31);
  la::Matrix pivot = special_distances(b, b, 32);
  pivot(5, 5) = -1.5;
  const la::Matrix dqt = special_distances(b, b, 33);
  const Span2D<const double> dtt = pivot.view();
  auto blk = [&](la::Matrix& s, std::size_t q, std::size_t c) {
    return s.block(q * b, c * b, b, b);
  };
  expect_fw_block_bitwise(
      store,
      [&](la::Matrix& s) {
        return Task{blk(s, 1, 1), blk(s, 1, 1), blk(s, 1, 1)};
      },
      "op1 in the local store");
  expect_fw_block_bitwise(
      store,
      [&](la::Matrix& s) { return Task{blk(s, 1, 2), dtt, blk(s, 1, 2)}; },
      "op21: c = b in the local store, a = D_tt");
  expect_fw_block_bitwise(
      store,
      [&](la::Matrix& s) { return Task{blk(s, 9, 1), blk(s, 9, 1), dtt}; },
      "op22: c = a in the local store, b = D_tt");
  expect_fw_block_bitwise(
      store,
      [&](la::Matrix& s) {
        return Task{blk(s, 3, 2), dqt.view(), blk(s, 1, 2)};
      },
      "op3: a = D_qt, b = row t of the local store");

  // op3 with c 37 x 45 and K = 64: a row and a column remainder at every
  // tile width.
  const la::Matrix ragged = special_distances(270, 96, 34);
  const la::Matrix a37 = special_distances(37, 64, 35);
  expect_fw_block_bitwise(
      ragged,
      [&](la::Matrix& s) {
        return Task{s.block(100, 3, 37, 45), a37.view(),
                    s.block(200, 50, 64, 45)};
      },
      "op3, c 37x45, K = 64");

  // Views of one matrix that share rows: blocked_floyd_warshall's op3
  // (c = D_uv, a = D_ut) has disjoint columns and takes the register tiles;
  // columns overlapping by one, views of different strides over one buffer
  // and rows that run past the stride into c's must still match the row
  // loop.
  expect_fw_block_bitwise(
      store,
      [&](la::Matrix& s) {
        return Task{blk(s, 3, 2), blk(s, 3, 1), blk(s, 1, 2)};
      },
      "same rows, disjoint columns (c = D_uv, a = D_ut)");
  expect_fw_block_bitwise(
      store,
      [&](la::Matrix& s) {
        return Task{s.block(96, 73, 37, 45), s.block(96, 10, 37, 64),
                    s.block(200, 73, 64, 45)};
      },
      "same rows, a's last column is c's first");
  expect_fw_block_bitwise(
      store,
      [&](la::Matrix& s) {
        const Span2D<const double> a(s.data() + 100, 37, 64, 2 * s.cols());
        return Task{s.block(0, 0, 37, 45), a, s.block(600, 0, 64, 45)};
      },
      "a at twice c's stride in one buffer");
  expect_fw_block_bitwise(
      store,
      [&](la::Matrix& s) {
        const Span2D<const double> a(s.data() + 250, 37, 64, s.cols());
        return Task{s.block(0, 0, 37, 45), a, s.block(600, 0, 64, 45)};
      },
      "a's rows running past the stride into c's rows");

  // op22 at every row width up to 72: whole rows in registers where a row
  // fits (up to 64 at AVX-512), the row loop at other widths such as 67;
  // 67 rows leave a remainder after every row group. Then c = a shifted
  // down one row, a partial overlap that must match the row loop.
  for (std::size_t w = 1; w <= 72; ++w) {
    la::Matrix dw = special_distances(w, w, 100 + w);
    dw(w / 2, w / 2) = -0.25;
    const std::string width = ", width " + std::to_string(w);
    expect_fw_block_bitwise(
        ragged,
        [&](la::Matrix& s) {
          const Span2D<double> c = s.block(1, 7, 67, w);
          return Task{c, c, dw.view()};
        },
        "op22" + width);
    expect_fw_block_bitwise(
        ragged,
        [&](la::Matrix& s) {
          return Task{s.block(2, 7, 67, w), s.block(1, 7, 67, w), dw.view()};
        },
        "c = a shifted by one row" + width);
  }
}

TEST(FwKernel, SoftBackendMatchesNativeOnAllOps) {
  fpga::FwKernel kernel(fpga::DeviceConfig::xc2vp50_floyd_warshall());
  // op1-style in-place aliasing.
  la::Matrix d1 = gr::random_digraph(12, 21, 0.6);
  la::Matrix d2 = d1;
  kernel.run_block(d1.view(), d1.view(), d1.view());
  kernel.run_block_soft(d2.view(), d2.view(), d2.view());
  EXPECT_TRUE(la::bit_equal(d1.view(), d2.view()));
  // op3-style disjoint operands.
  la::Matrix a = gr::random_digraph(12, 22, 0.6);
  la::Matrix b = gr::random_digraph(12, 23, 0.6);
  la::Matrix c1 = gr::random_digraph(12, 24, 0.6);
  la::Matrix c2 = c1;
  kernel.run_block(c1.view(), a.view(), b.view());
  kernel.run_block_soft(c2.view(), a.view(), b.view());
  EXPECT_TRUE(la::bit_equal(c1.view(), c2.view()));
}

TEST(FwKernel, HandlesInfinityEdges) {
  fpga::FwKernel kernel(fpga::DeviceConfig::xc2vp50_floyd_warshall());
  la::Matrix d(4, 4, gr::kNoEdge);
  for (int i = 0; i < 4; ++i) d(i, i) = 0.0;
  d(0, 1) = 1.0;
  d(1, 2) = 1.0;
  kernel.run_block(d.view(), d.view(), d.view());
  EXPECT_EQ(d(0, 2), 2.0);
  EXPECT_EQ(d(3, 0), gr::kNoEdge);
}

TEST(PeCycleSim, AmortizedLatencyConvergesToKSquared) {
  // [21]: "the effective latency for each submatrix multiply is k^2 FPGA
  // clock cycles". Derive it: as more tiles stream back to back, the
  // fill/drain overhead amortizes away and cycles/tile -> k^2.
  const int k = 8;
  const auto few = fpga::simulate_pe_array(k, 4, rcs::fparith::kMultiplierPipeline,
                                           rcs::fparith::kAdderPipeline);
  const auto many = fpga::simulate_pe_array(k, 4000,
                                            rcs::fparith::kMultiplierPipeline,
                                            rcs::fparith::kAdderPipeline);
  EXPECT_GT(few.amortized_cycles_per_tile(4), double(k * k));
  EXPECT_NEAR(many.amortized_cycles_per_tile(4000), double(k * k), 0.1);
  EXPECT_GT(many.multiplier_utilization, 0.999);
}

TEST(PeCycleSim, MatchesMatMulArraySteadyState) {
  // The aggregate model's cycle count equals the microsimulation's steady
  // phase; the microsimulation adds only the (constant) fill/drain.
  fpga::MatMulArray array(fpga::DeviceConfig::xc2vp50_matmul());
  const int k = array.k();
  const long long tiles = 375;  // one paper stripe: (b/k) = 375 tiles
  const auto sim = fpga::simulate_pe_array(k, tiles,
                                           rcs::fparith::kMultiplierPipeline,
                                           rcs::fparith::kAdderPipeline);
  EXPECT_EQ(sim.steady_cycles, array.cycles(k, k * tiles, k));
  EXPECT_LT(sim.drain_cycles, 100);  // constant, independent of tiles
}

TEST(PeCycleSim, PartialBankCountCoversAdderLatency) {
  // With k = 8 and a 14-deep adder, 2 banks make each bank's reuse
  // distance 16 >= 14 cycles; k = 16 needs only 1.
  const auto k8 = fpga::simulate_pe_array(8, 10, rcs::fparith::kMultiplierPipeline,
                                          rcs::fparith::kAdderPipeline);
  EXPECT_EQ(k8.partial_banks, 2);
  const auto k16 = fpga::simulate_pe_array(16, 10, rcs::fparith::kMultiplierPipeline,
                                           rcs::fparith::kAdderPipeline);
  EXPECT_EQ(k16.partial_banks, 1);
  // More banks -> a deeper final reduction -> more drain.
  const auto k4 = fpga::simulate_pe_array(4, 10, rcs::fparith::kMultiplierPipeline,
                                          rcs::fparith::kAdderPipeline);
  EXPECT_GT(k4.partial_banks, k8.partial_banks);
  EXPECT_GT(k4.drain_cycles, k16.drain_cycles);
}

TEST(PeCycleSim, RejectsNonPipelinedCores) {
  EXPECT_THROW(fpga::simulate_pe_array(8, 1, rcs::fparith::CorePipeline{10, 2},
                                       rcs::fparith::kAdderPipeline),
               rcs::Error);
  EXPECT_THROW(fpga::simulate_pe_array(0, 1, rcs::fparith::kMultiplierPipeline,
                                       rcs::fparith::kAdderPipeline),
               rcs::Error);
}

TEST(FwKernel, BramRequirementEnforcedAtConstruction) {
  auto dev = fpga::DeviceConfig::xc2vp50_floyd_warshall();
  dev.pe_count = 8;
  dev.bram_bytes = 2 * 8 * 8 * 8 - 1;  // one byte short of 2k^2 words
  EXPECT_THROW(fpga::FwKernel{dev}, rcs::Error);
}

}  // namespace
