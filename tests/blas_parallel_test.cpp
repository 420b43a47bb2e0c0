// The parallel compute runtime must be invisible in the numbers: the packed
// parallel gemm and the parallelized MatMulArray emulation have to produce
// results bit-identical to their naive/serial counterparts at every thread
// count, including ragged shapes that exercise the microkernel edge paths.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/system.hpp"
#include "fpga/matmul_array.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/generate.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "net/minimpi.hpp"
#include "obs/metrics.hpp"

namespace la = rcs::linalg;
namespace simd = rcs::linalg::simd;
namespace common = rcs::common;
namespace obs = rcs::obs;
using rcs::fpga::MatMulArray;

namespace {

// Thread counts the whole suite sweeps: serial, small, and a deliberately
// oversubscribed odd count (the issue's RCS_THREADS ∈ {1, 2, 7}).
const int kThreadCounts[] = {1, 2, 7};

// Shapes with non-multiple-of-tile m/n/k (MR=8, NR=8, KC=256, MC=64) plus
// aligned ones, degenerate edges, and a size big enough to cross panel
// boundaries. {32, 64, 32} is one opMM share of the paper's LU split (b = 64,
// b_f = b_p = 32); {48, 48, 48} and {49, 48, 48} sit on either side of the
// 48^3 cut where small products once left the packed engine; {300, 300, 61}
// is a b = 300 stripe (k > KC) against a ragged worker share.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},     {3, 5, 2},     {4, 8, 8},       {37, 53, 29},
    {32, 64, 32},  {48, 48, 48},  {49, 48, 48},    {64, 64, 64},
    {65, 63, 66},  {70, 300, 17}, {128, 260, 130}, {300, 300, 61},
};

/// Where the packed sweeps split A's rows in two packs, as a worker splits a
/// stripe into its FPGA and CPU rows: off the MR = 8 grid for every m > 2.
std::size_t row_split(std::size_t m) { return m * 3 / 7; }

// Ragged sweep from {1, 7, 63, 257, 1000}: every extent class (unit, tiny,
// one-under-tile, panel-crossing, above-NC slab) in non-square mixes, each
// kept small enough (m*k*n <= ~2e7) that the naive reference stays fast.
const Shape kRaggedShapes[] = {
    {1, 1000, 7},   {7, 257, 63},  {63, 63, 257},  {257, 1000, 1},
    {1000, 7, 257}, {63, 1000, 63}, {1000, 63, 63}, {257, 257, 257},
};

la::Matrix seeded(std::size_t r, std::size_t c, int seed) {
  return la::random_matrix(r, c, seed);
}

/// C += A * B^T in ascending-l order: the reference for every NT path.
void gemm_nt_naive(const la::Matrix& a, const la::Matrix& bt, la::Matrix& c) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      double acc = c(i, j);
      for (std::size_t l = 0; l < a.cols(); ++l) acc += a(i, l) * bt(j, l);
      c(i, j) = acc;
    }
  }
}

/// Run `body(level)` once per SIMD level this CPU supports, restoring the
/// previously active level afterwards.
template <typename Body>
void for_each_simd_level(const Body& body) {
  const simd::Level saved = simd::active_level();
  for (int lv = 0; lv <= static_cast<int>(simd::max_supported_level());
       ++lv) {
    body(static_cast<simd::Level>(lv));
  }
  simd::set_level(saved);
}

class BlasParallel : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    common::ThreadPool::set_global_threads(GetParam());
  }
  static void TearDownTestSuite() {
    common::ThreadPool::set_global_threads(1);
  }
};

TEST_P(BlasParallel, GemmBitIdenticalToNaive) {
  // gemm and gemm_nt at every SIMD level, small shapes included: every
  // native product runs the packed engine, whatever its size.
  int seed = 1;
  for (const Shape& s : kShapes) {
    const la::Matrix a = seeded(s.m, s.k, seed++);
    const la::Matrix b = seeded(s.k, s.n, seed++);
    const la::Matrix bt = seeded(s.n, s.k, seed++);
    const la::Matrix c0 = seeded(s.m, s.n, 99);  // nonzero C: gemm accumulates
    la::Matrix c_ref = c0;
    la::Matrix cnt_ref = c0;
    la::gemm_naive(a.view(), b.view(), c_ref.view());
    gemm_nt_naive(a, bt, cnt_ref);
    for_each_simd_level([&](simd::Level level) {
      simd::set_level(level);
      const std::string where = " m=" + std::to_string(s.m) +
                                " k=" + std::to_string(s.k) +
                                " n=" + std::to_string(s.n) + " threads=" +
                                std::to_string(GetParam()) +
                                " simd=" + simd::level_name(level);
      la::Matrix c = c0;
      la::gemm(a.view(), b.view(), c.view());
      EXPECT_TRUE(la::bit_equal(c.view(), c_ref.view())) << "gemm" << where;
      la::Matrix cnt = c0;
      la::gemm_nt(a.view(), bt.view(), cnt.view());
      EXPECT_TRUE(la::bit_equal(cnt.view(), cnt_ref.view()))
          << "gemm_nt" << where;
      // Packed once, A's rows in two packs split off the MR grid: the same
      // loop on kept operands, NN and NT.
      const std::size_t h = row_split(s.m);
      la::PackedA top, rest;
      top.pack(a.block(0, 0, h, s.k));
      rest.pack(a.block(h, 0, s.m - h, s.k));
      la::PackedB pb, pbt;
      pb.pack(b.view(), /*transposed=*/false);
      pbt.pack(bt.view(), /*transposed=*/true);
      la::Matrix cp = c0;
      la::gemm(top, pb, cp.block(0, 0, h, s.n));
      la::gemm(rest, pb, cp.block(h, 0, s.m - h, s.n));
      EXPECT_TRUE(la::bit_equal(cp.view(), c_ref.view()))
          << "packed gemm" << where;
      la::Matrix cpt = c0;
      la::gemm(top, pbt, cpt.block(0, 0, h, s.n));
      la::gemm(rest, pbt, cpt.block(h, 0, s.m - h, s.n));
      EXPECT_TRUE(la::bit_equal(cpt.view(), cnt_ref.view()))
          << "packed gemm_nt" << where;
    });
  }
}

TEST_P(BlasParallel, GemmStridedViewsBitIdentical) {
  // The functional plane calls gemm on strided sub-blocks; cover that path.
  const la::Matrix a = seeded(96, 96, 11);
  const la::Matrix b = seeded(96, 96, 12);
  la::Matrix c_ref = seeded(96, 96, 13);
  la::Matrix c = c_ref;
  la::gemm_naive(a.block(5, 3, 70, 50), b.block(3, 7, 50, 61),
                 c_ref.block(9, 20, 70, 61));
  la::gemm(a.block(5, 3, 70, 50), b.block(3, 7, 50, 61),
           c.block(9, 20, 70, 61));
  EXPECT_TRUE(la::bit_equal(c.view(), c_ref.view()));
}

TEST_P(BlasParallel, MatMulArrayBitIdenticalToNaive) {
  // Both native MatMulArray forms at every SIMD level. NativeFp::mac is
  // acc + a*b — the same per-entry update, in the same ascending-l order,
  // as gemm_naive.
  const MatMulArray array(rcs::core::SystemParams::cray_xd1().mm_fpga);
  int seed = 40;
  for (const Shape& s : kShapes) {
    const la::Matrix c = seeded(s.m, s.k, seed++);
    const la::Matrix d = seeded(s.k, s.n, seed++);
    const la::Matrix dt = seeded(s.n, s.k, seed++);
    const la::Matrix e0 = seeded(s.m, s.n, 77);
    la::Matrix e_ref = e0;
    la::Matrix ent_ref = e0;
    la::gemm_naive(c.view(), d.view(), e_ref.view());
    gemm_nt_naive(c, dt, ent_ref);
    for_each_simd_level([&](simd::Level level) {
      simd::set_level(level);
      const std::string where = " m=" + std::to_string(s.m) +
                                " k=" + std::to_string(s.k) +
                                " n=" + std::to_string(s.n) + " threads=" +
                                std::to_string(GetParam()) +
                                " simd=" + simd::level_name(level);
      la::Matrix e = e0;
      array.multiply_accumulate(c.view(), d.view(), e.view());
      EXPECT_TRUE(la::bit_equal(e.view(), e_ref.view())) << "nn" << where;
      la::Matrix ent = e0;
      array.multiply_accumulate_nt(c.view(), dt.view(), ent.view());
      EXPECT_TRUE(la::bit_equal(ent.view(), ent_ref.view())) << "nt" << where;
      // Packed once, C's rows in two packs split off the MR grid.
      const std::size_t h = row_split(s.m);
      la::PackedA top, rest;
      top.pack(c.block(0, 0, h, s.k));
      rest.pack(c.block(h, 0, s.m - h, s.k));
      la::PackedB pd, pdt;
      pd.pack(d.view(), /*transposed=*/false);
      pdt.pack(dt.view(), /*transposed=*/true);
      la::Matrix ep = e0;
      array.multiply_accumulate(top, pd, ep.block(0, 0, h, s.n));
      array.multiply_accumulate(rest, pd, ep.block(h, 0, s.m - h, s.n));
      EXPECT_TRUE(la::bit_equal(ep.view(), e_ref.view()))
          << "packed nn" << where;
      la::Matrix ept = e0;
      array.multiply_accumulate(top, pdt, ept.block(0, 0, h, s.n));
      array.multiply_accumulate(rest, pdt, ept.block(h, 0, s.m - h, s.n));
      EXPECT_TRUE(la::bit_equal(ept.view(), ent_ref.view()))
          << "packed nt" << where;
    });
  }
}

TEST_P(BlasParallel, MatMulArraySoftMatchesSerialSoft) {
  const MatMulArray array(rcs::core::SystemParams::cray_xd1().mm_fpga);
  const la::Matrix c = seeded(13, 9, 81);
  const la::Matrix d = seeded(9, 11, 82);
  la::Matrix e_serial = seeded(13, 11, 83);
  la::Matrix e_par = e_serial;

  common::ThreadPool::set_global_threads(1);
  array.multiply_accumulate_soft(c.view(), d.view(), e_serial.view());
  common::ThreadPool::set_global_threads(GetParam());
  array.multiply_accumulate_soft(c.view(), d.view(), e_par.view());
  EXPECT_TRUE(la::bit_equal(e_par.view(), e_serial.view()));

  // NT form, both backends.
  const la::Matrix dt = seeded(11, 9, 84);
  la::Matrix f_serial = seeded(13, 11, 85);
  la::Matrix f_par = f_serial;
  common::ThreadPool::set_global_threads(1);
  array.multiply_accumulate_nt_soft(c.view(), dt.view(), f_serial.view());
  common::ThreadPool::set_global_threads(GetParam());
  array.multiply_accumulate_nt_soft(c.view(), dt.view(), f_par.view());
  EXPECT_TRUE(la::bit_equal(f_par.view(), f_serial.view()));
}

TEST_P(BlasParallel, GemmRaggedSweepAcrossSimdPaths) {
  int seed = 200;
  for (const Shape& s : kRaggedShapes) {
    const la::Matrix a = seeded(s.m, s.k, seed++);
    const la::Matrix b = seeded(s.k, s.n, seed++);
    la::Matrix c_ref = seeded(s.m, s.n, 201);
    const la::Matrix c0 = c_ref;
    la::gemm_naive(a.view(), b.view(), c_ref.view());
    for_each_simd_level([&](simd::Level level) {
      simd::set_level(level);
      la::Matrix c = c0;
      la::gemm(a.view(), b.view(), c.view());
      EXPECT_TRUE(la::bit_equal(c.view(), c_ref.view()))
          << "m=" << s.m << " k=" << s.k << " n=" << s.n
          << " threads=" << GetParam()
          << " simd=" << simd::level_name(level);
    });
  }
}

TEST_P(BlasParallel, MatMulArrayStreamedRaggedSweepAcrossSimdPaths) {
  const MatMulArray array(rcs::core::SystemParams::cray_xd1().mm_fpga);
  int seed = 300;
  for (const Shape& s : kRaggedShapes) {
    const la::Matrix c = seeded(s.m, s.k, seed++);
    const la::Matrix d = seeded(s.k, s.n, seed++);
    const la::Matrix dt = seeded(s.n, s.k, seed++);
    la::Matrix e_ref = seeded(s.m, s.n, 301);
    la::Matrix ent_ref = e_ref;
    const la::Matrix e0 = e_ref;
    la::gemm_naive(c.view(), d.view(), e_ref.view());
    gemm_nt_naive(c, dt, ent_ref);
    for_each_simd_level([&](simd::Level level) {
      simd::set_level(level);
      la::Matrix e = e0;
      array.multiply_accumulate(c.view(), d.view(), e.view());
      EXPECT_TRUE(la::bit_equal(e.view(), e_ref.view()))
          << "nn m=" << s.m << " k=" << s.k << " n=" << s.n
          << " threads=" << GetParam()
          << " simd=" << simd::level_name(level);
      la::Matrix ent = e0;
      array.multiply_accumulate_nt(c.view(), dt.view(), ent.view());
      EXPECT_TRUE(la::bit_equal(ent.view(), ent_ref.view()))
          << "nt m=" << s.m << " k=" << s.k << " n=" << s.n
          << " threads=" << GetParam()
          << " simd=" << simd::level_name(level);
    });
  }
}

TEST_P(BlasParallel, MatMulArraySoftRaggedMatchesSerial) {
  // Soft-float stays on the scalar row loop; two small ragged shapes keep
  // the bit-accurate cores affordable.
  const MatMulArray array(rcs::core::SystemParams::cray_xd1().mm_fpga);
  const Shape soft_shapes[] = {{7, 63, 1}, {63, 7, 7}};
  int seed = 400;
  for (const Shape& s : soft_shapes) {
    const la::Matrix c = seeded(s.m, s.k, seed++);
    const la::Matrix d = seeded(s.k, s.n, seed++);
    const la::Matrix dt = seeded(s.n, s.k, seed++);
    la::Matrix e_ref = seeded(s.m, s.n, 401);
    la::Matrix ent_ref = e_ref;
    const la::Matrix e0 = e_ref;
    common::ThreadPool::set_global_threads(1);
    array.multiply_accumulate_soft(c.view(), d.view(), e_ref.view());
    array.multiply_accumulate_nt_soft(c.view(), dt.view(), ent_ref.view());
    common::ThreadPool::set_global_threads(GetParam());
    la::Matrix e = e0;
    array.multiply_accumulate_soft(c.view(), d.view(), e.view());
    EXPECT_TRUE(la::bit_equal(e.view(), e_ref.view()));
    la::Matrix ent = e0;
    array.multiply_accumulate_nt_soft(c.view(), dt.view(), ent.view());
    EXPECT_TRUE(la::bit_equal(ent.view(), ent_ref.view()));
  }
}

TEST_P(BlasParallel, TrsmLeftLowerUnitBitIdenticalToSerial) {
  // Column-strip parallel solve vs the single-thread result, including a
  // single-column B (fully serial by the grain heuristic).
  for (std::size_t rhs_cols : {std::size_t{1}, std::size_t{7},
                               std::size_t{257}}) {
    la::Matrix l = seeded(129, 129, 601);
    for (std::size_t i = 0; i < 129; ++i) l(i, i) = 1.0;
    const la::Matrix b0 = seeded(129, rhs_cols, 602);
    common::ThreadPool::set_global_threads(1);
    la::Matrix ref = b0;
    la::trsm_left_lower_unit(l.view(), ref.view());
    common::ThreadPool::set_global_threads(GetParam());
    la::Matrix b = b0;
    la::trsm_left_lower_unit(l.view(), b.view());
    EXPECT_TRUE(la::bit_equal(b.view(), ref.view()))
        << "rhs_cols=" << rhs_cols << " threads=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BlasParallel,
                         ::testing::ValuesIn(kThreadCounts));

// ---------------------------------------------------------------------------
// Small products on the calling thread

/// Turns obs metrics on for one test and restores the previous switch.
class MetricsOn {
 public:
  MetricsOn() : saved_(obs::metrics_enabled()) {
    obs::set_metrics_enabled(true);
  }
  ~MetricsOn() { obs::set_metrics_enabled(saved_); }

 private:
  bool saved_;
};

TEST(SmallProducts, OpMmShareNeverFansOut) {
  // One opMM share of the LU split (32x64 by 64x32) is a single i-tile of
  // four B panels: the engine's grain checks run it serially on the calling
  // rank, so no native path may enqueue a pool job.
  const MetricsOn metrics;
  obs::Counter& jobs = obs::Registry::global().counter("pool.jobs");
  const MatMulArray array(rcs::core::SystemParams::cray_xd1().mm_fpga);
  const la::Matrix a = seeded(32, 64, 700);
  const la::Matrix b = seeded(64, 32, 701);
  const la::Matrix bt = seeded(32, 64, 702);
  const std::pair<const char*, std::function<void(la::Matrix&)>> calls[] = {
      {"gemm", [&](la::Matrix& c) { la::gemm(a.view(), b.view(), c.view()); }},
      {"gemm_nt",
       [&](la::Matrix& c) { la::gemm_nt(a.view(), bt.view(), c.view()); }},
      {"multiply_accumulate",
       [&](la::Matrix& c) {
         array.multiply_accumulate(a.view(), b.view(), c.view());
       }},
      {"multiply_accumulate_nt",
       [&](la::Matrix& c) {
         array.multiply_accumulate_nt(a.view(), bt.view(), c.view());
       }},
  };
  for (int threads : {2, 7}) {
    common::ThreadPool::set_global_threads(threads);
    for (const auto& [name, call] : calls) {
      la::Matrix c(32, 32);
      const std::uint64_t before = jobs.value();
      call(c);
      EXPECT_EQ(jobs.value(), before) << name << " threads=" << threads;
    }
    // Control: a product big enough to split still fans out, so the
    // counter above is live.
    const la::Matrix big_a = seeded(256, 256, 703);
    la::Matrix big_c(256, 256);
    const std::uint64_t before = jobs.value();
    la::gemm(big_a.view(), big_a.view(), big_c.view());
    EXPECT_GT(jobs.value(), before) << "threads=" << threads;
  }
  common::ThreadPool::set_global_threads(1);
}

TEST(SmallProducts, PackBytesCountsBytesWritten) {
  // gemm.pack_bytes = (ceil(n/NR) k NR + ceil(n/NC) ceil(m/MR) k MR) * 8:
  // B micropanels hold k rows (not k padded to KC), and every NC column
  // slab re-packs A.
  const MetricsOn metrics;
  obs::Counter& packed = obs::Registry::global().counter("gemm.pack_bytes");
  const auto bytes = [&](std::size_t m, std::size_t k, std::size_t n) {
    const la::Matrix a = seeded(m, k, 710);
    const la::Matrix b = seeded(k, n, 711);
    la::Matrix c(m, n);
    const std::uint64_t before = packed.value();
    la::gemm(a.view(), b.view(), c.view());
    return packed.value() - before;
  };
  // (4*64*8 + 1*4*64*8) * 8.
  EXPECT_EQ(bytes(32, 64, 32), 32768u);
  // Two NC slabs and a ragged k chunk: (75*300*8 + 2*3*300*8) * 8.
  EXPECT_EQ(bytes(20, 300, 600), 1555200u);
}

TEST(PackedOperands, PackOnceMultiplyMany) {
  // A kept pack is written once, however many products read it: packing a
  // 32 x 64 stripe and a 64 x 32 share counts their bytes, and two packed
  // products count two gemm calls and no further pack bytes.
  const MetricsOn metrics;
  obs::Counter& packed = obs::Registry::global().counter("gemm.pack_bytes");
  obs::Counter& calls = obs::Registry::global().counter("gemm.calls");
  const la::Matrix a = seeded(32, 64, 720);
  const la::Matrix b = seeded(64, 32, 721);
  const std::uint64_t bytes0 = packed.value();
  la::PackedA pa;
  la::PackedB pb;
  pa.pack(a.view());
  pb.pack(b.view(), /*transposed=*/false);
  EXPECT_EQ(packed.value() - bytes0, 2u * 4 * 64 * 8 * 8);
  const std::uint64_t bytes1 = packed.value();
  const std::uint64_t calls1 = calls.value();
  la::Matrix c(32, 32);
  la::gemm(pa, pb, c.view());
  la::gemm(pa, pb, c.view());
  EXPECT_EQ(packed.value(), bytes1);
  EXPECT_EQ(calls.value() - calls1, 2u);
  la::Matrix ref(32, 32);
  la::gemm_naive(a.view(), b.view(), ref.view());
  la::gemm_naive(a.view(), b.view(), ref.view());
  EXPECT_TRUE(la::bit_equal(c.view(), ref.view()));
  // Mismatched operands are refused before any arithmetic.
  la::PackedA wide;
  wide.pack(seeded(32, 65, 722).view());
  EXPECT_THROW(la::gemm(wide, pb, c.view()), rcs::Error);
}

// ---------------------------------------------------------------------------
// Minimum-grain heuristic

TEST(GrainHeuristic, FloorsChunksAtMinWork) {
  // 20 us floor at 10 ns/item -> 2000 items per chunk.
  EXPECT_EQ(common::grain_for_cost(10.0), 2000u);
  // Items already >= the floor run at grain 1 (full parallelism).
  EXPECT_EQ(common::grain_for_cost(common::kMinChunkNs), 1u);
  EXPECT_EQ(common::grain_for_cost(1e9), 1u);
  // Degenerate costs never divide by zero or overflow.
  EXPECT_EQ(common::grain_for_cost(0.0), 1u);
  EXPECT_EQ(common::grain_for_cost(-5.0), 1u);
  EXPECT_EQ(common::grain_for_cost(1e-12), static_cast<std::size_t>(1e9));
  // Flop variant: 100 flops/item at 0.05 ns/flop = 5 ns/item -> 4000.
  EXPECT_EQ(common::grain_for_flops(100.0), 4000u);
}

TEST(GrainHeuristic, SmallJobsStaySerial) {
  common::ThreadPool pool(8);
  std::atomic<int> chunks{0};
  // 100 items at 10 ns each is far below one 20 us chunk -> 1 chunk.
  pool.parallel_for(0, 100, common::grain_for_cost(10.0),
                    [&](std::size_t, std::size_t) { ++chunks; });
  EXPECT_EQ(chunks.load(), 1);
}

// ---------------------------------------------------------------------------
// ThreadPool primitive behavior

TEST(ThreadPool, ChunksPartitionTheRange) {
  for (int threads : {1, 2, 3, 8}) {
    common::ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, GrainLimitsChunkCount) {
  common::ThreadPool pool(8);
  std::atomic<int> chunks{0};
  pool.parallel_for(0, 10, 6, [&](std::size_t, std::size_t) { ++chunks; });
  EXPECT_EQ(chunks.load(), 1);  // 10 items, grain 6 -> one chunk
}

TEST(ThreadPool, NestedCallsRunSerially) {
  common::ThreadPool::set_global_threads(4);
  std::atomic<int> total{0};
  common::parallel_for(0, 8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // Nested: must degrade to serial, not deadlock.
      common::parallel_for(0, 10, 1,
                           [&](std::size_t nb, std::size_t ne) {
                             total.fetch_add(static_cast<int>(ne - nb));
                           });
    }
  });
  EXPECT_EQ(total.load(), 80);
  common::ThreadPool::set_global_threads(1);
}

TEST(ThreadPool, PropagatesBodyException) {
  common::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [&](std::size_t b, std::size_t) {
                          if (b == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  common::ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// Regression: the nested-parallelism cap used to serialize any parallel_for
// issued from a pool-hosted context. MiniMPI rank fibers are hosted inside a
// pool parallel_for (the worker loops), but a rank's GEMM must still fan
// out — the fiber scheduler clears the in-parallel-body flag while a fiber
// runs and restores it on yield. A serialized call runs its body exactly
// once over the whole range; the pool path partitions into
// min(threads, count/grain) chunks, so with 3 pool threads the rank must
// observe 3 chunks. Rank 0 parks in recv before its parallel_for to prove
// the flag also survives a suspend/resume cycle.
TEST(ThreadPool, RankFiberParallelForIsNotSerialized) {
  common::ThreadPool::set_global_threads(3);
  rcs::net::NetworkParams np;
  np.bytes_per_s = 1e9;
  np.latency_s = 0.0;
  rcs::net::World world(2, np);
  world.set_max_workers(2);  // two worker loops hosted on the pool
  std::atomic<int> chunks0{0}, chunks1{0};
  world.run([&](rcs::net::Comm& comm) {
    auto& chunks = comm.rank() == 0 ? chunks0 : chunks1;
    if (comm.rank() == 0) comm.recv(1, 1);  // park + resume before computing
    common::parallel_for(0, 300, 1, [&](std::size_t, std::size_t) {
      chunks.fetch_add(1);
      // True nested parallelism from inside a chunk body must still
      // degrade to serial (one invocation), fiber or not.
      std::atomic<int> inner{0};
      common::parallel_for(0, 300, 1,
                           [&](std::size_t, std::size_t) { ++inner; });
      EXPECT_EQ(inner.load(), 1);
    });
    if (comm.rank() == 1) comm.send_value(0, 1, 1);
  });
  EXPECT_EQ(chunks0.load(), 3);
  EXPECT_EQ(chunks1.load(), 3);
  common::ThreadPool::set_global_threads(1);
}

}  // namespace
