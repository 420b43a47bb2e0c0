#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/gemm_kernel.hpp"
#include "linalg/generate.hpp"

namespace rcs::linalg {

void potrf_unblocked(Span2D<double> a) {
  RCS_CHECK_MSG(a.rows() == a.cols(), "potrf: square matrix required");
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    RCS_CHECK_MSG(d > 0.0, "potrf: matrix not positive definite at column "
                               << j << " (pivot " << d << ")");
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    const double inv = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= a(i, k) * a(j, k);
      a(i, j) = v * inv;
    }
  }
}

void trsm_right_lower_transposed(Span2D<const double> l, Span2D<double> b) {
  RCS_CHECK_MSG(l.rows() == l.cols(), "trsm: L must be square");
  RCS_CHECK_MSG(l.rows() == b.cols(), "trsm: L/B shape mismatch");
  const std::size_t n = l.rows();
  // X L^T = B row-wise: x[j] = (b[j] - sum_{k<j} x[k] L[j][k]) / L[j][j].
  // Reciprocal-multiply, matching potrf_unblocked's own column scaling.
  std::vector<double> inv(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double d = l(j, j);
    RCS_CHECK_MSG(d != 0.0, "trsm: singular L (zero diagonal at " << j << ")");
    inv[j] = 1.0 / d;
  }
  for (std::size_t r = 0; r < b.rows(); ++r) {
    double* x = b.row(r);
    for (std::size_t j = 0; j < n; ++j) {
      double acc = x[j];
      for (std::size_t k = 0; k < j; ++k) acc -= x[k] * l(j, k);
      x[j] = acc * inv[j];
    }
  }
}

void gemm_nt(Span2D<const double> a, Span2D<const double> b,
             Span2D<double> c) {
  RCS_CHECK_MSG(a.cols() == b.cols() && a.rows() == c.rows() &&
                    b.rows() == c.cols(),
                "gemm_nt shape mismatch: A " << a.rows() << "x" << a.cols()
                                             << ", B^T " << b.cols() << "x"
                                             << b.rows() << ", C "
                                             << c.rows() << "x" << c.cols());
  // The packed engine supports B^T natively (it packs b(j, l) micropanels),
  // accumulating each C entry in ascending-k order.
  detail::gemm_views(a, b, c, /*b_transposed=*/true);
}

void potrf_blocked(Span2D<double> a, std::size_t bs) {
  RCS_CHECK_MSG(a.rows() == a.cols(), "potrf_blocked: square matrix required");
  RCS_CHECK_MSG(bs > 0, "potrf_blocked: block size must be positive");
  const std::size_t n = a.rows();
  for (std::size_t t = 0; t < n; t += bs) {
    const std::size_t tb = std::min(bs, n - t);
    potrf_unblocked(a.block(t, t, tb, tb));
    if (t + tb >= n) break;
    const std::size_t rest = n - t - tb;
    trsm_right_lower_transposed(a.block(t, t, tb, tb),
                                a.block(t + tb, t, rest, tb));
    // Trailing update of the lower triangle, block by block, with the same
    // kernel the distributed design uses per (u, v) pair.
    for (std::size_t u = 0; u < rest; u += bs) {
      const std::size_t ub = std::min(bs, rest - u);
      for (std::size_t v = 0; v <= u; v += bs) {
        const std::size_t vb = std::min(bs, rest - v);
        Matrix e(ub, vb);
        gemm_nt(a.block(t + tb + u, t, ub, tb),
                a.block(t + tb + v, t, vb, tb), e.view());
        matrix_sub(a.block(t + tb + u, t + tb + v, ub, vb), e.view());
      }
    }
  }
}

double cholesky_residual(Span2D<const double> original,
                         Span2D<const double> factored) {
  const std::size_t n = original.rows();
  RCS_CHECK_MSG(original.cols() == n && factored.rows() == n &&
                    factored.cols() == n,
                "cholesky_residual: shape mismatch");
  // L from the lower triangle of `factored`.
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) l(i, j) = factored(i, j);
  Matrix llt(n, n);
  gemm_nt(l.view(), l.view(), llt.view());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // Compare against the symmetric matrix implied by the lower triangle.
      const double aij = j <= i ? original(i, j) : original(j, i);
      const double d = aij - llt(i, j);
      num += d * d;
      den += aij * aij;
    }
  }
  RCS_CHECK_MSG(den > 0.0, "cholesky_residual: zero matrix");
  return std::sqrt(num / den);
}

Matrix spd_matrix(std::size_t n, std::uint64_t seed) {
  const Matrix m = random_matrix(n, n, seed, -1.0, 1.0);
  Matrix a(n, n);
  gemm_nt(m.view(), m.view(), a.view());  // M M^T: symmetric PSD
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

}  // namespace rcs::linalg
