#include "linalg/blas.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "linalg/gemm_kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcs::linalg {

namespace {
void check_gemm_shapes(Span2D<const double> a, Span2D<const double> b,
                       Span2D<double> c) {
  RCS_CHECK_MSG(a.cols() == b.rows() && a.rows() == c.rows() &&
                    b.cols() == c.cols(),
                "gemm shape mismatch: A " << a.rows() << "x" << a.cols()
                                          << ", B " << b.rows() << "x"
                                          << b.cols() << ", C " << c.rows()
                                          << "x" << c.cols());
}
}  // namespace

void gemm_naive(Span2D<const double> a, Span2D<const double> b,
                Span2D<double> c) {
  check_gemm_shapes(a, b, c);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      double acc = c(i, j);
      for (std::size_t l = 0; l < a.cols(); ++l) acc += a(i, l) * b(l, j);
      c(i, j) = acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Packed register-blocked engine in the BLIS mold, shared by gemm, gemm_nt,
// and the FPGA MatMulArray emulation (see gemm_kernel.hpp for the layouts).
//
// Bit-exactness: every C entry is updated as acc += a * b with the inner
// index l strictly ascending — within a microkernel call because the l loop
// is the outer loop, and across k-chunks because each i-tile task visits
// them in ascending order and C is reloaded/stored per chunk. No
// reassociation, no FMA (-ffp-contract=off keeps the vector multiply and
// add apart), so the result equals gemm_naive bit-for-bit at any thread
// count and at whatever vector width this file is built for.
//
// Structure: packing and computing are separate steps. PackedA / PackedB
// pack a whole operand (cooperatively on the pool when it is big enough)
// into a value the caller may keep; gemm_packed then runs, per NC-column
// slab, one parallel region over MC-row i-tiles. The view entry points
// pack into per-thread scratch and call the same loop, so a caller that
// reuses packs runs exactly the kernel a view call runs.

namespace detail {
namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Pack one kc x w B micropanel (w <= kNR live columns, rest zero-padded)
/// into `panel` (kc * kNR doubles, fully overwritten). `transposed` reads
/// b(j + jr, k0 + l) instead of b(k0 + l, j + jr).
void pack_b_micropanel(Span2D<const double> b, bool transposed,
                       std::size_t k0, std::size_t kc, std::size_t j,
                       std::size_t w, double* panel) {
  if (!transposed) {
    for (std::size_t l = 0; l < kc; ++l) {
      const double* brow = b.row(k0 + l) + j;
      double* prow = panel + l * kNR;
      for (std::size_t jr = 0; jr < w; ++jr) prow[jr] = brow[jr];
      for (std::size_t jr = w; jr < kNR; ++jr) prow[jr] = 0.0;
    }
  } else {
    std::fill(panel, panel + kc * kNR, 0.0);
    for (std::size_t jr = 0; jr < w; ++jr) {
      const double* brow = b.row(j + jr) + k0;
      for (std::size_t l = 0; l < kc; ++l) panel[l * kNR + jr] = brow[l];
    }
  }
}

// The microkernel holds the tile in GCC vector types as wide as the widest
// ISA this file is built for, as graph::fw_block's register tiles do, so
// one source gives zmm, ymm or xmm code.
#if defined(__AVX512F__)
constexpr std::size_t kVecBytes = 64;
#elif defined(__AVX2__)
constexpr std::size_t kVecBytes = 32;
#else
constexpr std::size_t kVecBytes = 16;
#endif
typedef double Vec __attribute__((vector_size(kVecBytes)));
constexpr std::size_t kLanes = kVecBytes / sizeof(double);

// A tile row is kRowVecs vectors, and the rows go in groups of eight
// accumulators: all 8 rows at AVX-512 (one zmm each), 4 at AVX2 and 2 at
// SSE2. Eight leave room for the B row and the broadcast of a even in the
// 16 registers of AVX2 and SSE2; the B panel is re-read per group from L1.
constexpr std::size_t kRowVecs = kNR / kLanes;
constexpr std::size_t kGroupRows = kMR / kRowVecs;
static_assert(kNR % kLanes == 0 && kMR % kRowVecs == 0,
              "a tile row is whole vectors");

Vec load(const double* p) {
  Vec v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, Vec v) { std::memcpy(p, &v, sizeof v); }

}  // namespace

void micro_kernel(std::size_t kc, const double* ap, const double* bp,
                  double* acc) {
  for (std::size_t r0 = 0; r0 < kMR; r0 += kGroupRows) {
    Vec r[kGroupRows][kRowVecs] = {};
    for (std::size_t i = 0; i < kGroupRows; ++i) {
      for (std::size_t v = 0; v < kRowVecs; ++v) {
        r[i][v] = load(acc + (r0 + i) * kNR + v * kLanes);
      }
    }
    for (std::size_t l = 0; l < kc; ++l) {
      Vec b[kRowVecs] = {};
      for (std::size_t v = 0; v < kRowVecs; ++v) {
        b[v] = load(bp + l * kNR + v * kLanes);
      }
      const double* a = ap + l * kMR + r0;
      for (std::size_t i = 0; i < kGroupRows; ++i) {
        for (std::size_t v = 0; v < kRowVecs; ++v) r[i][v] += a[i] * b[v];
      }
    }
    for (std::size_t i = 0; i < kGroupRows; ++i) {
      for (std::size_t v = 0; v < kRowVecs; ++v) {
        store(acc + (r0 + i) * kNR + v * kLanes, r[i][v]);
      }
    }
  }
}

namespace {

/// Run the microkernel against the (possibly ragged) mr x nr corner of C
/// at (i0, j0): load the live entries, accumulate, store them back.
void micro_tile(std::size_t kc, const double* ap, const double* bp,
                Span2D<double> c, std::size_t i0, std::size_t j0,
                std::size_t mr, std::size_t nr) {
  double acc[kMR * kNR];
  if (mr == kMR && nr == kNR) {
    for (std::size_t ir = 0; ir < kMR; ++ir) {
      std::memcpy(acc + ir * kNR, c.row(i0 + ir) + j0, kNR * sizeof(double));
    }
    micro_kernel(kc, ap, bp, acc);
    for (std::size_t ir = 0; ir < kMR; ++ir) {
      std::memcpy(c.row(i0 + ir) + j0, acc + ir * kNR, kNR * sizeof(double));
    }
    return;
  }
  std::fill(acc, acc + kMR * kNR, 0.0);
  for (std::size_t ir = 0; ir < mr; ++ir) {
    for (std::size_t jr = 0; jr < nr; ++jr) {
      acc[ir * kNR + jr] = c(i0 + ir, j0 + jr);
    }
  }
  micro_kernel(kc, ap, bp, acc);
  for (std::size_t ir = 0; ir < mr; ++ir) {
    for (std::size_t jr = 0; jr < nr; ++jr) {
      c(i0 + ir, j0 + jr) = acc[ir * kNR + jr];
    }
  }
}

/// Pack scratch of the view entry points, one pair per calling thread and
/// reused across calls. Pool workers write into it during cooperative
/// packing through the captured reference, which is safe: parallel_for
/// completion orders those writes before every later read.
thread_local PackedA tls_a;
thread_local PackedB tls_b;

/// Run `body(u)` for the `units` strips or panels of a pack, each about
/// min(KC, depth) * lanes doubles, split over the pool at ~0.5 ns per byte
/// copied: a small pack stays on the calling thread.
template <typename Body>
void pack_units(std::size_t units, std::size_t depth, std::size_t lanes,
                const Body& body) {
  const std::size_t grain = common::grain_for_cost(
      static_cast<double>(std::min(kKC, depth)) * lanes * 8.0 * 0.5);
  common::parallel_for(0, units, grain, [&](std::size_t u0, std::size_t u1) {
    for (std::size_t u = u0; u < u1; ++u) body(u);
  });
}

void count_pack_bytes(std::size_t doubles) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& packed =
      obs::Registry::global().counter("gemm.pack_bytes");
  packed.add(doubles * sizeof(double));
}

}  // namespace

void gemm_packed(const PackedA& a, const PackedB& b, Span2D<double> c) {
  const std::size_t m = c.rows(), n = c.cols(), k = a.depth();
  if (m == 0 || n == 0 || k == 0) return;
  const std::size_t strips = ceil_div(m, kMR);
  const std::size_t panels = ceil_div(n, kNR);
  const std::size_t nkc = ceil_div(k, kKC);
  const std::size_t ntiles = ceil_div(m, kMC);

  for (std::size_t j0 = 0; j0 < n; j0 += kNC) {
    const std::size_t nc = std::min(kNC, n - j0);
    // One region over i-tiles; each task owns disjoint C rows and applies
    // the k-chunks in ascending order (bit-identity).
    const std::size_t tile_grain = common::grain_for_flops(
        2.0 * static_cast<double>(std::min(kMC, m)) *
        static_cast<double>(nc) * static_cast<double>(k));
    common::parallel_for(
        0, ntiles, tile_grain, [&](std::size_t t0, std::size_t t1) {
          for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t i0 = t * kMC;
            const std::size_t mc = std::min(kMC, m - i0);
            for (std::size_t kb = 0; kb < nkc; ++kb) {
              const std::size_t k0 = kb * kKC;
              const std::size_t kc = std::min(kKC, k - k0);
              const double* achunk = a.data() + k0 * strips * kMR;
              const double* bchunk = b.data() + k0 * panels * kNR;
              for (std::size_t j = j0; j < j0 + nc; j += kNR) {
                const double* bp = bchunk + (j / kNR) * kc * kNR;
                const std::size_t w = std::min(kNR, n - j);
                for (std::size_t i = i0; i < i0 + mc; i += kMR) {
                  const double* ap = achunk + (i / kMR) * kc * kMR;
                  micro_tile(kc, ap, bp, c, i, j, std::min(kMR, m - i), w);
                }
              }
            }
          }
        });
  }
}

void gemm_views(Span2D<const double> a, Span2D<const double> b,
                Span2D<double> c, bool b_transposed) {
  const std::size_t m = c.rows(), n = c.cols(), k = a.cols();
  if (m == 0 || n == 0 || k == 0) return;
  for (std::size_t j0 = 0; j0 < n; j0 += kNC) {
    const std::size_t nc = std::min(kNC, n - j0);
    tls_b.pack(b_transposed ? b.block(j0, 0, nc, k) : b.block(0, j0, k, nc),
               b_transposed);
    tls_a.pack(a);
    gemm_packed(tls_a, tls_b, c.block(0, j0, m, nc));
  }
}

}  // namespace detail

void PackedA::pack(Span2D<const double> a) {
  using namespace detail;
  rows_ = a.rows();
  depth_ = a.cols();
  const std::size_t strips = ceil_div(rows_, kMR);
  buf_.resize(strips * depth_ * kMR);
  double* const out = buf_.data();
  // One unit per (k-chunk, strip); units write disjoint strips.
  pack_units(ceil_div(depth_, kKC) * strips, depth_, kMR, [&](std::size_t u) {
    const std::size_t k0 = u / strips * kKC;
    const std::size_t kc = std::min(kKC, depth_ - k0);
    const std::size_t i = u % strips * kMR;
    const std::size_t h = std::min(kMR, rows_ - i);
    double* strip = out + k0 * strips * kMR + (i / kMR) * kc * kMR;
    for (std::size_t ir = 0; ir < h; ++ir) {
      const double* arow = a.row(i + ir) + k0;
      for (std::size_t l = 0; l < kc; ++l) strip[l * kMR + ir] = arow[l];
    }
    if (h < kMR) {
      for (std::size_t l = 0; l < kc; ++l) {
        std::fill(strip + l * kMR + h, strip + (l + 1) * kMR, 0.0);
      }
    }
  });
  count_pack_bytes(buf_.size());
}

void PackedB::pack(Span2D<const double> b, bool transposed) {
  using namespace detail;
  transposed_ = transposed;
  depth_ = transposed ? b.cols() : b.rows();
  cols_ = transposed ? b.rows() : b.cols();
  const std::size_t panels = ceil_div(cols_, kNR);
  buf_.resize(panels * depth_ * kNR);
  double* const out = buf_.data();
  // One unit per (k-chunk, panel); units write disjoint panels.
  pack_units(ceil_div(depth_, kKC) * panels, depth_, kNR, [&](std::size_t u) {
    const std::size_t k0 = u / panels * kKC;
    const std::size_t kc = std::min(kKC, depth_ - k0);
    const std::size_t j = u % panels * kNR;
    pack_b_micropanel(b, transposed, k0, kc, j, std::min(kNR, cols_ - j),
                      out + k0 * panels * kNR + (j / kNR) * kc * kNR);
  });
  count_pack_bytes(buf_.size());
}

namespace {
/// Telemetry of one gemm call: one relaxed add per *call* (never per
/// element), so the instrumented kernel's wall time is indistinguishable
/// from the bare one.
void count_gemm(std::size_t m, std::size_t n, std::size_t k) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& calls = obs::Registry::global().counter("gemm.calls");
  static obs::Counter& flops = obs::Registry::global().counter("gemm.flops");
  calls.add(1);
  flops.add(static_cast<std::uint64_t>(2) * m * n * k);
}
}  // namespace

void gemm(Span2D<const double> a, Span2D<const double> b, Span2D<double> c) {
  check_gemm_shapes(a, b, c);
  const std::size_t m = c.rows(), n = c.cols(), k = a.cols();
  if (m == 0 || n == 0 || k == 0) return;
  count_gemm(m, n, k);
  obs::ScopedTimer span("gemm", "linalg");
  detail::gemm_views(a, b, c, /*b_transposed=*/false);
}

void gemm(const PackedA& a, const PackedB& b, Span2D<double> c) {
  RCS_CHECK_MSG(a.depth() == b.depth() && a.rows() == c.rows() &&
                    b.cols() == c.cols(),
                "packed gemm shape mismatch: A " << a.rows() << "x"
                                                 << a.depth() << ", B "
                                                 << b.depth() << "x"
                                                 << b.cols() << ", C "
                                                 << c.rows() << "x"
                                                 << c.cols());
  const std::size_t m = c.rows(), n = c.cols(), k = a.depth();
  if (m == 0 || n == 0 || k == 0) return;
  count_gemm(m, n, k);
  obs::ScopedTimer span("gemm", "linalg");
  detail::gemm_packed(a, b, c);
}

void gemm_overwrite(Span2D<const double> a, Span2D<const double> b,
                    Span2D<double> c) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    double* row = c.row(i);
    std::fill(row, row + c.cols(), 0.0);
  }
  gemm(a, b, c);
}

void trsm_left_lower_unit(Span2D<const double> l, Span2D<double> b) {
  RCS_CHECK_MSG(l.rows() == l.cols(), "trsm: L must be square");
  RCS_CHECK_MSG(l.rows() == b.rows(), "trsm: L/B shape mismatch");
  const std::size_t n = l.rows();
  const std::size_t m = b.cols();
  if (n == 0 || m == 0) return;
  // Forward substitution: X[i] = B[i] - sum_{j<i} L[i,j] X[j]. Columns of B
  // are independent systems, so the solve parallelizes over disjoint column
  // strips with the per-column (i, j) order — and therefore every output
  // bit — unchanged at any thread count. The grain heuristic keeps small
  // right-hand sides (the LU opL panels are often narrow) serial: one
  // column costs ~n^2 flops of work.
  const std::size_t grain = common::grain_for_flops(
      static_cast<double>(n) * static_cast<double>(n));
  common::parallel_for(0, m, grain, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t i = 0; i < n; ++i) {
      double* bi = b.row(i);
      for (std::size_t j = 0; j < i; ++j) {
        const double lij = l(i, j);
        if (lij == 0.0) continue;
        const double* bj = b.row(j);
        for (std::size_t col = c0; col < c1; ++col) bi[col] -= lij * bj[col];
      }
      // Unit diagonal: no divide.
    }
  });
}

namespace {
/// Rows r0 .. r0+R-1 of trsm_right_upper's X U = B, given inv[j] = 1/U[j,j].
/// Row-update form, as in getrf_panel: for ascending i, x[i] is final once
/// scaled, and every later x[j] then subtracts x[i] U[i,j]. Each x[j] sees
/// the same subtractions in the same ascending-i order as the dot form
///   x[j] = (b[j] - sum_{i<j} x[i] U[i,j]) * inv[j],
/// so the bits are the same; but the j loop vectorizes, and the R rows it
/// advances together overlap their dependency chains.
template <std::size_t R>
void trsm_right_upper_rows(Span2D<const double> u, const double* inv,
                           Span2D<double> b, std::size_t r0) {
  const std::size_t n = u.rows();
  double* x[R];
  for (std::size_t r = 0; r < R; ++r) x[r] = b.row(r0 + r);
  for (std::size_t i = 0; i < n; ++i) {
    double xi[R];
    for (std::size_t r = 0; r < R; ++r) xi[r] = x[r][i] *= inv[i];
    const double* ui = u.row(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      for (std::size_t r = 0; r < R; ++r) x[r][j] -= xi[r] * ui[j];
    }
  }
}
}  // namespace

void trsm_right_upper(Span2D<const double> u, Span2D<double> b) {
  RCS_CHECK_MSG(u.rows() == u.cols(), "trsm: U must be square");
  RCS_CHECK_MSG(u.cols() == b.cols(), "trsm: U/B shape mismatch");
  const std::size_t n = u.rows();
  // Solve X U = B row-wise, kRows rows at a time. The reciprocal-multiply
  // matches getrf_panel's Gaussian elimination bit-for-bit, so L10 blocks
  // computed via this trsm (the distributed design's opL) equal the ones a
  // monolithic panel factorization produces.
  std::vector<double> inv(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double d = u(j, j);
    RCS_CHECK_MSG(d != 0.0, "trsm: singular U (zero diagonal at " << j << ")");
    inv[j] = 1.0 / d;
  }
  constexpr std::size_t kRows = 4;
  std::size_t r0 = 0;
  for (; r0 + kRows <= b.rows(); r0 += kRows) {
    trsm_right_upper_rows<kRows>(u, inv.data(), b, r0);
  }
  for (; r0 < b.rows(); ++r0) trsm_right_upper_rows<1>(u, inv.data(), b, r0);
}

void matrix_sub(Span2D<double> a, Span2D<const double> b) {
  RCS_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                "matrix_sub shape mismatch");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* ar = a.row(r);
    const double* br = b.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) ar[c] -= br[c];
  }
}

void matrix_add(Span2D<double> a, Span2D<const double> b) {
  RCS_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                "matrix_add shape mismatch");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* ar = a.row(r);
    const double* br = b.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) ar[c] += br[c];
  }
}

}  // namespace rcs::linalg
