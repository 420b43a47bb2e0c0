#include "linalg/getrf.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/blas.hpp"

namespace rcs::linalg {

void getrf_unblocked(Span2D<double> a) {
  RCS_CHECK_MSG(a.rows() == a.cols(), "getrf_unblocked: square matrix required");
  getrf_panel(a);
}

void getrf_panel(Span2D<double> a) {
  const std::size_t n = a.rows();
  const std::size_t b = a.cols();
  RCS_CHECK_MSG(n >= b, "getrf_panel: panel must be at least as tall as wide");
  for (std::size_t k = 0; k < b; ++k) {
    const double pivot = a(k, k);
    RCS_CHECK_MSG(pivot != 0.0,
                  "getrf: zero pivot at step " << k
                      << " (matrix requires pivoting; the paper assumes none)");
    const double inv = 1.0 / pivot;
    for (std::size_t i = k + 1; i < n; ++i) a(i, k) *= inv;
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = a(i, k);
      if (lik == 0.0) continue;
      double* ai = a.row(i);
      const double* ak = a.row(k);
      for (std::size_t j = k + 1; j < b; ++j) ai[j] -= lik * ak[j];
    }
  }
}

void getrf_blocked(Span2D<double> a, std::size_t b) {
  RCS_CHECK_MSG(a.rows() == a.cols(), "getrf_blocked: square matrix required");
  RCS_CHECK_MSG(b > 0, "getrf_blocked: block size must be positive");
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; k += b) {
    const std::size_t kb = std::min(b, n - k);
    // Step 1: factor the current panel (A[k:n, k:k+kb]) — opLU + opL.
    getrf_panel(a.block(k, k, n - k, kb));
    if (k + kb >= n) break;
    const std::size_t rest = n - k - kb;
    // Step 2: U01 = L00^-1 * A01 — opU.
    trsm_left_lower_unit(a.block(k, k, kb, kb), a.block(k, k + kb, kb, rest));
    // Step 3: trailing update A11 -= L10 * U01 — opMM + opMS.
    Matrix prod(rest, rest);
    gemm_overwrite(a.block(k + kb, k, rest, kb), a.block(k, k + kb, kb, rest),
                   prod.view());
    matrix_sub(a.block(k + kb, k + kb, rest, rest), prod.view());
  }
}

void split_lu(Span2D<const double> factored, Matrix& l, Matrix& u) {
  const std::size_t n = factored.rows();
  RCS_CHECK_MSG(factored.cols() == n, "split_lu: square matrix required");
  l = Matrix(n, n);
  u = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    l(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) l(i, j) = factored(i, j);
    for (std::size_t j = i; j < n; ++j) u(i, j) = factored(i, j);
  }
}

double lu_residual(Span2D<const double> original,
                   Span2D<const double> factored) {
  Matrix l, u;
  split_lu(factored, l, u);
  Matrix lu(original.rows(), original.cols());
  gemm_overwrite(l.view(), u.view(), lu.view());
  double num = 0.0;
  for (std::size_t i = 0; i < lu.rows(); ++i) {
    for (std::size_t j = 0; j < lu.cols(); ++j) {
      const double d = original(i, j) - lu(i, j);
      num += d * d;
    }
  }
  const double den = frobenius_norm(original);
  RCS_CHECK_MSG(den > 0.0, "lu_residual: zero matrix");
  return std::sqrt(num) / den;
}

}  // namespace rcs::linalg
