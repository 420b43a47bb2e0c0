#pragma once
// Dense BLAS-subset kernels used by the host ("software") side of the hybrid
// designs — the stand-in for the ACML routines the paper calls (dgemm, dtrsm)
// and for the elementwise update opMS.
//
// All kernels operate on (possibly strided) Span2D views so they compose with
// the blocked algorithms without copies.

#include <cstddef>
#include <vector>

#include "common/span2d.hpp"

namespace rcs::linalg {

/// C += A * B (naive triple loop; reference implementation for tests).
void gemm_naive(Span2D<const double> a, Span2D<const double> b,
                Span2D<double> c);

/// The first operand of the packed engine, packed once and kept: A's rows
/// in MR-tall strips for every KC-deep chunk of the inner dimension
/// (layout in gemm_kernel.hpp). A caller that multiplies the same rows by
/// several operands packs them once and passes the pack to every product.
class PackedA {
 public:
  /// Pack `a` (rows x depth, any stride), reusing this object's storage.
  /// Counted in gemm.pack_bytes.
  void pack(Span2D<const double> a);

  std::size_t rows() const { return rows_; }
  std::size_t depth() const { return depth_; }
  const double* data() const { return buf_.data(); }

 private:
  std::vector<double> buf_;
  std::size_t rows_ = 0;
  std::size_t depth_ = 0;
};

/// The second operand of the packed engine, packed once and kept: B's
/// columns in NR-wide panels for every KC-deep chunk. `transposed` packs
/// the operand B^T from `b` (cols x depth), the NT product's second operand;
/// the packed layout is the same either way.
class PackedB {
 public:
  /// Pack `b` (depth x cols, or cols x depth when `transposed`), reusing
  /// this object's storage. Counted in gemm.pack_bytes.
  void pack(Span2D<const double> b, bool transposed);

  std::size_t depth() const { return depth_; }
  std::size_t cols() const { return cols_; }
  bool transposed() const { return transposed_; }
  const double* data() const { return buf_.data(); }

 private:
  std::vector<double> buf_;
  std::size_t depth_ = 0;
  std::size_t cols_ = 0;
  bool transposed_ = false;
};

/// C += A * B, packed register-blocked engine (the production host dgemm
/// substitute, at every size): per column slab, B's panels and A's strips
/// are packed (cooperatively on the shared common::ThreadPool when big
/// enough), then one parallel region over row tiles runs the 8x8
/// microkernel, built at the hot-kernel ISA (obs::kernel_isa()): the loop
/// of the packed overload below. Products too small to split run on the
/// calling thread. Per-entry accumulation order is ascending inner index
/// with no FMA, so the result is bit-identical to gemm_naive at any thread
/// count and at any vector width.
void gemm(Span2D<const double> a, Span2D<const double> b, Span2D<double> c);

/// C += A * B (A * B^T when `b` was packed transposed) from operands packed
/// once: the same compute loop, bits and telemetry as the view form,
/// without its packs.
void gemm(const PackedA& a, const PackedB& b, Span2D<double> c);

/// C = A * B (zeroes C first, then gemm).
void gemm_overwrite(Span2D<const double> a, Span2D<const double> b,
                    Span2D<double> c);

/// Solve L * X = B in place of B, with L lower-triangular and unit-diagonal
/// (dtrsm side=Left, uplo=Lower, diag=Unit). Used by opU: U01 = L00^-1 A01.
/// Parallelized over disjoint column strips of B (columns are independent
/// systems); per-column operation order is unchanged, so the result is
/// bit-identical to the serial solve at any thread count.
void trsm_left_lower_unit(Span2D<const double> l, Span2D<double> b);

/// Solve X * U = B in place of B, with U upper-triangular (non-unit diagonal)
/// (dtrsm side=Right, uplo=Upper, diag=NonUnit). Used by opL:
/// L10 = A10 U00^-1.
void trsm_right_upper(Span2D<const double> u, Span2D<double> b);

/// A -= B elementwise — the paper's opMS task (Θ(b²), kept on the processor).
void matrix_sub(Span2D<double> a, Span2D<const double> b);

/// A += B elementwise.
void matrix_add(Span2D<double> a, Span2D<const double> b);

/// Number of floating-point operations counted for an m x k by k x n gemm
/// (one multiply + one add per inner step, matching the paper's accounting).
inline long long gemm_flops(long long m, long long k, long long n) {
  return 2LL * m * k * n;
}

/// Flop count for a triangular solve with an n x n triangle and m right-hand
/// side rows/columns.
inline long long trsm_flops(long long n, long long m) { return 1LL * n * n * m; }

/// Flop count for LU factorization of an n x n matrix (2/3 n^3 leading term).
inline long long getrf_flops(long long n) { return 2LL * n * n * n / 3; }

}  // namespace rcs::linalg
