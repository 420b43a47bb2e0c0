// Microbenchmarks of the computational substrates: host gemm and trsm, the
// Floyd–Warshall block kernels, and the bit-accurate IEEE-754 cores (soft
// vs native). google-benchmark binary.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/system.hpp"
#include "fparith/ieee754.hpp"
#include "fpga/matmul_array.hpp"
#include "fpga/pe_cycle_sim.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/simd.hpp"

using namespace rcs;

namespace {

void BM_GemmNaive(benchmark::State& state) {
  const std::size_t n = state.range(0);
  linalg::Matrix a = linalg::random_matrix(n, n, 1);
  linalg::Matrix b = linalg::random_matrix(n, n, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    linalg::gemm_naive(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

// The packed register-blocked microkernel (current production gemm),
// parallelized over row tiles on the shared pool. Threads follow
// RCS_THREADS / hardware concurrency.
void BM_GemmPacked(benchmark::State& state) {
  const std::size_t n = state.range(0);
  linalg::Matrix a = linalg::random_matrix(n, n, 1);
  linalg::Matrix b = linalg::random_matrix(n, n, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    linalg::gemm(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmPacked)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

// The streamed MatMulArray FPGA emulation (NativeFp path through the packed
// engine). n = 1024 exactly fills the xc2vp50's SRAM result tile (1M words),
// the paper's headline operating point.
void BM_MatMulArrayEmulation(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const fpga::MatMulArray array(core::SystemParams::cray_xd1().mm_fpga);
  linalg::Matrix c = linalg::random_matrix(n, n, 3);
  linalg::Matrix d = linalg::random_matrix(n, n, 4);
  linalg::Matrix e(n, n);
  for (auto _ : state) {
    array.multiply_accumulate(c.view(), d.view(), e.view());
    benchmark::DoNotOptimize(e.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMulArrayEmulation)->Arg(512)->Arg(1024);

// Raw microkernel A/B: one 8x8 register tile against packed micropanels,
// per dispatch level. Isolates the SIMD win from packing and pool effects;
// levels the CPU lacks are skipped.
void BM_MicroKernel(benchmark::State& state) {
  const auto level = static_cast<linalg::simd::Level>(state.range(0));
  if (!linalg::simd::level_supported(level)) {
    state.SkipWithError("SIMD level not supported on this CPU");
    return;
  }
  const linalg::simd::MicroKernelFn kern = linalg::simd::micro_kernel(level);
  constexpr std::size_t kc = 256;
  Rng rng(23);
  std::vector<double> ap(kc * linalg::simd::kMR), bp(kc * linalg::simd::kNR);
  for (auto& v : ap) v = rng.uniform(-1.0, 1.0);
  for (auto& v : bp) v = rng.uniform(-1.0, 1.0);
  double acc[linalg::simd::kMR * linalg::simd::kNR] = {0.0};
  for (auto _ : state) {
    kern(kc, ap.data(), bp.data(), acc);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 2 * kc *
                          linalg::simd::kMR * linalg::simd::kNR);
  state.SetLabel(linalg::simd::level_name(level));
}
BENCHMARK(BM_MicroKernel)
    ->Arg(static_cast<int>(linalg::simd::Level::Scalar))
    ->Arg(static_cast<int>(linalg::simd::Level::Avx2))
    ->Arg(static_cast<int>(linalg::simd::Level::Avx512));

void BM_GetrfBlocked(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const linalg::Matrix a = linalg::diagonally_dominant(n, 3);
  for (auto _ : state) {
    linalg::Matrix f = a;
    linalg::getrf_blocked(f.view(), 32);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n / 3);
}
BENCHMARK(BM_GetrfBlocked)->Arg(128)->Arg(256);

void BM_FwBlockKernel(benchmark::State& state) {
  const std::size_t b = state.range(0);
  linalg::Matrix c = graph::random_digraph(b, 5, 0.6);
  linalg::Matrix a = graph::random_digraph(b, 6, 0.6);
  linalg::Matrix d = graph::random_digraph(b, 7, 0.6);
  for (auto _ : state) {
    graph::fw_block(c.view(), a.view(), d.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * b * b * b);
}
BENCHMARK(BM_FwBlockKernel)->Arg(32)->Arg(64)->Arg(128);

void BM_FloydWarshallReference(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const linalg::Matrix d0 = graph::random_digraph(n, 8, 0.5);
  for (auto _ : state) {
    linalg::Matrix d = d0;
    graph::floyd_warshall(d);
    benchmark::DoNotOptimize(d.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_FloydWarshallReference)->Arg(64)->Arg(128);

void BM_SoftFpAdd(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> xs(1024), ys(1024);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform(-1e6, 1e6);
    ys[i] = rng.uniform(-1e6, 1e6);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fparith::add(xs[i & 1023], ys[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_SoftFpAdd);

void BM_SoftFpMul(benchmark::State& state) {
  Rng rng(13);
  std::vector<double> xs(1024), ys(1024);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform(-1e6, 1e6);
    ys[i] = rng.uniform(-1e6, 1e6);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fparith::mul(xs[i & 1023], ys[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_SoftFpMul);

void BM_PotrfBlocked(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const linalg::Matrix a = linalg::spd_matrix(n, 4);
  for (auto _ : state) {
    linalg::Matrix f = a;
    linalg::potrf_blocked(f.view(), 32);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n / 3);
}
BENCHMARK(BM_PotrfBlocked)->Arg(128)->Arg(256);

void BM_GemmNT(benchmark::State& state) {
  const std::size_t n = state.range(0);
  linalg::Matrix a = linalg::random_matrix(n, n, 1);
  linalg::Matrix b = linalg::random_matrix(n, n, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    linalg::gemm_nt(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(128);

void BM_PeCycleSim(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fpga::simulate_pe_array(8, 375, fparith::kMultiplierPipeline,
                                fparith::kAdderPipeline)
            .total_cycles);
  }
}
BENCHMARK(BM_PeCycleSim);

void BM_NativeFpAdd(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> xs(1024), ys(1024);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform(-1e6, 1e6);
    ys[i] = rng.uniform(-1e6, 1e6);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xs[i & 1023] + ys[i & 1023]);
    ++i;
  }
}
BENCHMARK(BM_NativeFpAdd);

}  // namespace
