#pragma once
// LU decomposition without pivoting (the paper assumes a nonsingular matrix
// for which no pivoting is needed, as customary in hardware matrix
// factorization). Both the unblocked reference and the right-looking blocked
// algorithm of Choi et al. (ScaLAPACK, reference [10]) are provided.

#include <cstddef>

#include "common/span2d.hpp"
#include "linalg/matrix.hpp"

namespace rcs::linalg {

/// In-place unblocked LU without pivoting: on return the strictly-lower part
/// of `a` holds L (unit diagonal implied) and the upper part holds U.
/// Throws rcs::Error on a zero pivot. This is the paper's opLU task (the
/// dgetrf stand-in) when applied to an n x b panel's top square, and the
/// small-matrix algorithm of CLRS [3].
void getrf_unblocked(Span2D<double> a);

/// In-place LU of a tall n x b panel: factors the top b x b square and
/// updates the rows below it (Gaussian elimination on the full panel —
/// step 1 of the paper's block algorithm, producing L00, U00 and L10).
void getrf_panel(Span2D<double> a);

/// In-place blocked right-looking LU without pivoting with block size `b`
/// (reference [10]); numerically equivalent to getrf_unblocked.
void getrf_blocked(Span2D<double> a, std::size_t b);

/// Extract L (unit lower) and U (upper) from a factored matrix.
void split_lu(Span2D<const double> factored, Matrix& l, Matrix& u);

/// Relative residual ||A - L*U||_F / ||A||_F given the original matrix and
/// the in-place factorization. Small (≈ n * eps) for a healthy factorization.
double lu_residual(Span2D<const double> original,
                   Span2D<const double> factored);

}  // namespace rcs::linalg
