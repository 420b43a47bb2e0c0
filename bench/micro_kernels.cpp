// Microbenchmarks of the computational substrates: host gemm and trsm, the
// Floyd–Warshall block kernels, and the bit-accurate IEEE-754 cores (soft
// vs native). google-benchmark binary.
//
// The packed gemm, MatMulArray and trsm rows take a pool size (the `pool`
// argument, set through ThreadPool::set_global_threads) and time real
// seconds. They report the pool's telemetry per iteration as user counters,
// so a scaling regression is attributable: `queue_wait_ms` growing with the
// pool size while `busy_ms` stays flat means chunk dispatch overhead;
// `busy_ms` growing with it means the kernel does more total work per call.
// `jobs` and `chunks` count the parallel_for calls that fanned out and the
// chunks they ran. Each of these rows is labelled with the active SIMD
// level; the FW block rows, one per task form, are labelled with the vector
// ISA that floyd_warshall.cpp was compiled for. Repetitions with spread,
// interleaving and JSON output come from google-benchmark's own flags, e.g.
//   --benchmark_filter='GemmPacked|MatMulArray|Trsm'
//   --benchmark_repetitions=10 --benchmark_enable_random_interleaving=true

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
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
#include "obs/metrics.hpp"

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

/// For one pool-sized row: sizes the global pool to state.range(1) threads
/// with pool telemetry on. On destruction it reports the telemetry deltas
/// per iteration as counters, labels the row with the SIMD level, and
/// restores the pool size and the metrics switch.
class PoolRow {
 public:
  explicit PoolRow(benchmark::State& state)
      : state_(state),
        saved_threads_(common::ThreadPool::global().threads()),
        saved_metrics_(obs::metrics_enabled()) {
    common::ThreadPool::set_global_threads(static_cast<int>(state.range(1)));
    obs::set_metrics_enabled(true);
    before_ = Stamp::take();
  }
  ~PoolRow() {
    const Stamp after = Stamp::take();
    const auto per_iter = [](double v) {
      return benchmark::Counter(v, benchmark::Counter::kAvgIterations);
    };
    state_.counters["jobs"] = per_iter(after.jobs - before_.jobs);
    state_.counters["chunks"] = per_iter(after.chunks - before_.chunks);
    state_.counters["busy_ms"] =
        per_iter((after.busy_ns - before_.busy_ns) / 1e6);
    state_.counters["queue_wait_ms"] =
        per_iter((after.queue_wait_ns - before_.queue_wait_ns) / 1e6);
    state_.SetLabel(linalg::simd::level_name(linalg::simd::active_level()));
    obs::set_metrics_enabled(saved_metrics_);
    common::ThreadPool::set_global_threads(saved_threads_);
  }
  PoolRow(const PoolRow&) = delete;
  PoolRow& operator=(const PoolRow&) = delete;

 private:
  struct Stamp {
    double jobs = 0.0, chunks = 0.0, busy_ns = 0.0, queue_wait_ns = 0.0;
    static Stamp take() {
      obs::Registry& reg = obs::Registry::global();
      return Stamp{static_cast<double>(reg.counter("pool.jobs").value()),
                   static_cast<double>(reg.counter("pool.chunks").value()),
                   static_cast<double>(reg.counter("pool.busy_ns").value()),
                   reg.histogram("pool.queue_wait_ns").sum()};
    }
  };

  benchmark::State& state_;
  int saved_threads_;
  bool saved_metrics_;
  Stamp before_;
};

/// Arguments {n, pool} for every size in `sizes` and pool sizes 1, 2, 4, 8,
/// timed in real seconds (the pool's workers do the work).
void pool_sweep(benchmark::internal::Benchmark* b,
                const std::vector<std::int64_t>& sizes) {
  b->ArgNames({"n", "pool"})->ArgsProduct({sizes, {1, 2, 4, 8}});
  b->UseRealTime();
}

// The packed register-blocked microkernel (current production gemm),
// parallelized over row tiles on the shared pool.
void BM_GemmPacked(benchmark::State& state) {
  const std::size_t n = state.range(0);
  linalg::Matrix a = linalg::random_matrix(n, n, 1);
  linalg::Matrix b = linalg::random_matrix(n, n, 2);
  linalg::Matrix c(n, n);
  PoolRow row(state);
  for (auto _ : state) {
    linalg::gemm(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          linalg::gemm_flops(state.range(0), state.range(0),
                                             state.range(0)));
}
BENCHMARK(BM_GemmPacked)->Apply([](auto* b) { pool_sweep(b, {256, 1024}); });

// The streamed MatMulArray FPGA emulation (NativeFp path through the packed
// engine). n = 1024 exactly fills the xc2vp50's SRAM result tile (1M words),
// the paper's headline operating point.
void BM_MatMulArrayEmulation(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const fpga::MatMulArray array(core::SystemParams::cray_xd1().mm_fpga);
  linalg::Matrix c = linalg::random_matrix(n, n, 3);
  linalg::Matrix d = linalg::random_matrix(n, n, 4);
  linalg::Matrix e(n, n);
  PoolRow row(state);
  for (auto _ : state) {
    array.multiply_accumulate(c.view(), d.view(), e.view());
    benchmark::DoNotOptimize(e.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          linalg::gemm_flops(state.range(0), state.range(0),
                                             state.range(0)));
}
BENCHMARK(BM_MatMulArrayEmulation)->Apply([](auto* b) {
  pool_sweep(b, {256, 1024});
});

// The parallel unit-lower triangular solve behind LU's opU, with an n x n
// right-hand side. The solve works in place, so each iteration first
// restores the right-hand side.
void BM_TrsmLeftLowerUnit(benchmark::State& state) {
  const std::size_t n = state.range(0);
  linalg::Matrix l = linalg::random_matrix(n, n, 5);
  for (std::size_t i = 0; i < n; ++i) l(i, i) = 1.0;
  const linalg::Matrix b0 = linalg::random_matrix(n, n, 6);
  linalg::Matrix b(n, n);
  PoolRow row(state);
  for (auto _ : state) {
    b = b0;
    linalg::trsm_left_lower_unit(l.view(), b.view());
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          linalg::trsm_flops(state.range(0), state.range(0)));
}
BENCHMARK(BM_TrsmLeftLowerUnit)->Apply([](auto* b) { pool_sweep(b, {512}); });

// LU's opL: L10 = A10 U00^-1 with U00 the upper factor of a factored
// diagonal block, at lu_dense's b = 64. The solve is serial and works in
// place, so each iteration first restores the right-hand side.
void BM_TrsmRightUpper(benchmark::State& state) {
  const std::size_t n = state.range(0);
  linalg::Matrix u = linalg::diagonally_dominant(n, 7);
  linalg::getrf_unblocked(u.view());
  const linalg::Matrix b0 = linalg::random_matrix(n, n, 8);
  linalg::Matrix b(n, n);
  for (auto _ : state) {
    b = b0;
    linalg::trsm_right_upper(u.view(), b.view());
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          linalg::trsm_flops(state.range(0), state.range(0)));
}
BENCHMARK(BM_TrsmRightUpper)->Arg(64);

// One worker's opMM share at lu_dense's split: the 64 x 64 C stripe times
// a 64 x 32 D share, its first b_f = 32 rows on MatMulArray and the rest
// on gemm. `unpacked` passes views, so every call packs both operands, as
// a worker that packs per task does; `packed_once` packs the stripe's two
// row halves and the share before the loop, as a worker that reuses them
// across an iteration's tasks does. Serial (the share never fans out);
// labelled with the SIMD level.
void BM_OpmmShare(benchmark::State& state, bool packed_once) {
  constexpr std::size_t b = 64, cw = 32, b_f = 32;
  const fpga::MatMulArray array(core::SystemParams::cray_xd1().mm_fpga);
  const linalg::Matrix c = linalg::random_matrix(b, b, 5);
  const linalg::Matrix d = linalg::random_matrix(b, cw, 6);
  linalg::Matrix e(b, cw);
  linalg::PackedA c_f, c_p;
  linalg::PackedB pd;
  c_f.pack(c.block(0, 0, b_f, b));
  c_p.pack(c.block(b_f, 0, b - b_f, b));
  pd.pack(d.view(), /*transposed=*/false);
  for (auto _ : state) {
    if (packed_once) {
      array.multiply_accumulate(c_f, pd, e.block(0, 0, b_f, cw));
      linalg::gemm(c_p, pd, e.block(b_f, 0, b - b_f, cw));
    } else {
      array.multiply_accumulate(c.block(0, 0, b_f, b), d.view(),
                                e.block(0, 0, b_f, cw));
      linalg::gemm(c.block(b_f, 0, b - b_f, b), d.view(),
                   e.block(b_f, 0, b - b_f, cw));
    }
    benchmark::DoNotOptimize(e.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * linalg::gemm_flops(b, b, cw));
  state.SetLabel(linalg::simd::level_name(linalg::simd::active_level()));
}
BENCHMARK_CAPTURE(BM_OpmmShare, unpacked, false);
BENCHMARK_CAPTURE(BM_OpmmShare, packed_once, true);

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

// The four FW block-task forms on fw_functional's layout: a rank's local
// store of four block-columns (row stride 4b), with D_tt and D_qt arriving
// as contiguous packed blocks. op3 and op22 take fw_block's register paths
// (op22 where a row fits the register file), op21 and op1 its row loop.
enum class FwForm { Op3, Op22, Op21, Op1 };

void BM_FwBlockKernel(benchmark::State& state, FwForm form) {
  const std::size_t b = state.range(0);
  linalg::Matrix store = graph::random_digraph(4 * b, 5, 0.6);
  const linalg::Matrix dtt = graph::random_digraph(b, 6, 0.6);
  const linalg::Matrix dqt = graph::random_digraph(b, 7, 0.6);
  auto blk = [&](std::size_t q, std::size_t c) {
    return store.block(q * b, c * b, b, b);
  };
  Span2D<double> c;
  Span2D<const double> a;
  Span2D<const double> d;
  switch (form) {
    case FwForm::Op3:
      c = blk(2, 2);
      a = dqt.view();
      d = blk(1, 2);
      break;
    case FwForm::Op22:
      c = blk(2, 1);
      a = c;
      d = dtt.view();
      break;
    case FwForm::Op21:
      c = blk(1, 2);
      a = dtt.view();
      d = c;
      break;
    case FwForm::Op1:
      c = blk(1, 1);
      a = c;
      d = c;
      break;
  }
  for (auto _ : state) {
    graph::fw_block(c, a, d);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * b * b * b);
  state.SetLabel(graph::kernel_isa());
}
BENCHMARK_CAPTURE(BM_FwBlockKernel, op3, FwForm::Op3)->Arg(64);
BENCHMARK_CAPTURE(BM_FwBlockKernel, op22, FwForm::Op22)->Arg(64);
BENCHMARK_CAPTURE(BM_FwBlockKernel, op21, FwForm::Op21)->Arg(64);
BENCHMARK_CAPTURE(BM_FwBlockKernel, op1, FwForm::Op1)->Arg(64);

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
