#include "fpga/matmul_array.hpp"

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "linalg/gemm_kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcs::fpga {

namespace {

/// Estimated nanoseconds one emulated MAC costs on the soft-float row loop,
/// for the pool's minimum-grain heuristic: the bit-accurate cores do field
/// extraction, alignment, and rounding in integer code — two orders of
/// magnitude above a native load-mul-add.
constexpr double kSoftMacNs = 100.0;

/// Telemetry for the emulated PE array. `stall_cycles` estimates the PE
/// slots the systolic schedule would leave idle on ragged tiles: the cycle
/// model charges full k x k tiles, so slots = cycles * k while the useful
/// work is only m * inner * n MACs.
struct MmMetrics {
  obs::Counter& calls;
  obs::Counter& macs;
  obs::Counter& stall_cycles;

  static MmMetrics& get() {
    static MmMetrics m{obs::Registry::global().counter("fpga.mm.calls"),
                       obs::Registry::global().counter("fpga.mm.macs"),
                       obs::Registry::global().counter("fpga.mm.stalls")};
    return m;
  }
};

}  // namespace

MatMulArray::MatMulArray(DeviceConfig dev) : dev_(std::move(dev)) {
  RCS_CHECK_MSG(dev_.pe_count > 0, "MatMulArray needs at least one PE");
  // Each PE double-buffers a k x k tile of C and a k-row slice of D in
  // Block RAM (2 k^2 words, as in [21]).
  require_bram(dev_,
               2ull * static_cast<std::uint64_t>(dev_.pe_count) *
                   static_cast<std::uint64_t>(dev_.pe_count),
               "matmul PE array");
}

void MatMulArray::note_call(std::size_t m, std::size_t inner, std::size_t n,
                            bool nt) const {
  require_sram(dev_, sram_words(static_cast<long long>(m),
                                static_cast<long long>(n)),
               nt ? "matmul-nt result tile" : "matmul result tile");
  if (!obs::metrics_enabled()) return;
  MmMetrics& mm = MmMetrics::get();
  mm.calls.add(1);
  const std::uint64_t useful = static_cast<std::uint64_t>(m) * inner * n;
  mm.macs.add(useful);
  const std::uint64_t slots =
      static_cast<std::uint64_t>(cycles(static_cast<long long>(m),
                                        static_cast<long long>(inner),
                                        static_cast<long long>(n))) *
      static_cast<std::uint64_t>(dev_.pe_count);
  mm.stall_cycles.add(slots - useful);
}

long long MatMulArray::cycles(long long m, long long inner,
                              long long n) const {
  RCS_CHECK_MSG(m >= 0 && inner >= 0 && n >= 0, "negative matmul extent");
  if (m == 0 || inner == 0 || n == 0) return 0;
  const long long k = dev_.pe_count;
  auto ceil_div = [](long long a, long long b) { return (a + b - 1) / b; };
  const long long tiles = ceil_div(m, k) * ceil_div(inner, k) * ceil_div(n, k);
  return tiles * k * k;
}

void MatMulArray::mac(Span2D<const double> c, Span2D<const double> d,
                      Span2D<double> e, bool soft, bool nt) const {
  RCS_CHECK_MSG(c.cols() == (nt ? d.cols() : d.rows()) &&
                    c.rows() == e.rows() &&
                    (nt ? d.rows() : d.cols()) == e.cols(),
                (nt ? "matmul-nt shape mismatch" : "matmul shape mismatch"));
  note_call(e.rows(), c.cols(), e.cols(), nt);
  obs::ScopedTimer span(nt ? "mm_nt" : "mm", "fpga");
  // Dot products accumulate in ascending inner-index order, exactly like the
  // streaming PEs (and the host gemm), so both paths below yield identical
  // bits at any thread count.
  //
  // Native FP streams through the packed engine at every size: C-row strips
  // and D micropanels (D's rows, for NT) are packed into contiguous scratch
  // (the read stage), gemm's 8x8 microkernel accumulates (compute), and
  // each result strip is written back per tile (write). NativeFp::mac is
  // an unfused a*b then add, the same operation the engine performs. The
  // engine's grain checks keep an opMM-share-sized product on the calling
  // thread; only products big enough to split fan out to the pool.
  if (!soft) {
    linalg::detail::gemm_views(c, d, e, nt);
  } else {
    // Bit-accurate cores: plain row loop through element(); the grain
    // heuristic keeps cheap calls serial instead of paying chunk dispatch.
    const std::size_t grain = common::grain_for_cost(
        kSoftMacNs * static_cast<double>(c.cols()) *
        static_cast<double>(e.cols()));
    common::parallel_for(0, e.rows(), grain,
                         [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = 0; j < e.cols(); ++j) {
          e(i, j) = element(c, d, i, j, e(i, j), /*soft=*/true, nt);
        }
      }
    });
  }
}

void MatMulArray::multiply_accumulate(const linalg::PackedA& c,
                                      const linalg::PackedB& d,
                                      Span2D<double> e) const {
  const bool nt = d.transposed();
  RCS_CHECK_MSG(c.depth() == d.depth() && c.rows() == e.rows() &&
                    d.cols() == e.cols(),
                (nt ? "matmul-nt shape mismatch" : "matmul shape mismatch"));
  note_call(e.rows(), c.depth(), e.cols(), nt);
  obs::ScopedTimer span(nt ? "mm_nt" : "mm", "fpga");
  linalg::detail::gemm_packed(c, d, e);
}

double MatMulArray::element(Span2D<const double> c, Span2D<const double> d,
                            std::size_t i, std::size_t j, double init,
                            bool soft, bool nt) const {
  double acc = init;
  for (std::size_t l = 0; l < c.cols(); ++l) {
    const double dv = nt ? d(j, l) : d(l, j);
    acc = soft ? fparith::SoftFp::mac(acc, c(i, l), dv)
               : fparith::NativeFp::mac(acc, c(i, l), dv);
  }
  return acc;
}

void MatMulArray::multiply_accumulate(Span2D<const double> c,
                                      Span2D<const double> d,
                                      Span2D<double> e) const {
  mac(c, d, e, /*soft=*/false, /*nt=*/false);
}

void MatMulArray::multiply_accumulate_soft(Span2D<const double> c,
                                           Span2D<const double> d,
                                           Span2D<double> e) const {
  mac(c, d, e, /*soft=*/true, /*nt=*/false);
}

void MatMulArray::multiply_accumulate_nt(Span2D<const double> c,
                                         Span2D<const double> d,
                                         Span2D<double> e) const {
  mac(c, d, e, /*soft=*/false, /*nt=*/true);
}

void MatMulArray::multiply_accumulate_nt_soft(Span2D<const double> c,
                                              Span2D<const double> d,
                                              Span2D<double> e) const {
  mac(c, d, e, /*soft=*/true, /*nt=*/true);
}

}  // namespace rcs::fpga
