#pragma once
// Floyd–Warshall all-pairs shortest paths: the textbook O(n^3) algorithm
// (CLRS [3]) and the blocked formulation of Venkataraman, Sahni and
// Mukhopadhyaya (reference [7]) whose four task types (op1/op21/op22/op3)
// the paper distributes across nodes.
//
// Distances are doubles stored in a linalg::Matrix; "no edge" is represented
// by kNoEdge (IEEE +infinity works throughout: inf+x = inf and min() picks
// the finite path).

#include <cstddef>
#include <limits>
#include <vector>

#include "common/span2d.hpp"
#include "linalg/matrix.hpp"

namespace rcs::graph {

using linalg::Matrix;

/// Distance value meaning "no path known".
constexpr double kNoEdge = std::numeric_limits<double>::infinity();

/// In-place reference Floyd–Warshall on an n x n distance matrix.
void floyd_warshall(Matrix& d);

/// Reference Floyd–Warshall that also produces a next-hop matrix for path
/// reconstruction: next[i][j] is the vertex to step to from i on a shortest
/// path to j, or SIZE_MAX when unreachable/identical.
void floyd_warshall_with_paths(Matrix& d,
                               std::vector<std::size_t>& next_hop);

/// Reconstruct the vertex sequence i -> ... -> j from a next-hop matrix of
/// width n. Empty when j is unreachable from i.
std::vector<std::size_t> reconstruct_path(
    const std::vector<std::size_t>& next_hop, std::size_t n, std::size_t i,
    std::size_t j);

/// The generalized blocked relaxation kernel — one b x b task of the blocked
/// algorithm. For k = 0..K-1 (K = a.cols()), in that order:
///     c[i][j] = min(c[i][j], a[i][k] + b[k][j]),
/// where min is the select `via < c ? via : c` (NaN and -0.0 included). The
/// blocked algorithm's task forms alias c as follows:
///   op1 : c = a = b = D_tt      (diagonal block, in-place FW)
///   op21: c = b = D_tq, a = D_tt  (row-t blocks)
///   op22: c = a = D_qt, b = D_tt  (column-t blocks)
///   op3 : c = D_uv, a = D_ut, b = D_tv  (no aliasing)
/// The path follows from the views alone. When c's bytes overlap neither
/// a's nor b's (op3), 4-row tiles of c stay in registers across all of k.
/// When c is the same view as a and b is disjoint (op22), whole rows of c
/// stay in registers and a[i][k] is read from the row's own lane, if a row
/// is whole vectors and at most 64 doubles at AVX-512 (16 at AVX2, 8 at
/// SSE2). Everything else takes the k-outer row loop, which is correct for
/// any aliasing: op1, op21, op22 at other widths, any other overlap, and the
/// rows and columns left over from the register paths. Every path applies
/// the same add and select to each entry in ascending k, so the result is
/// the same bits whichever path runs.
void fw_block(Span2D<double> c, Span2D<const double> a,
              Span2D<const double> b);

/// In-place blocked Floyd–Warshall with block size `b` (reference [7]);
/// produces exactly the same result as floyd_warshall. The independent
/// blocks of each wave (step 2 and step 3) run in parallel on the shared
/// common::ThreadPool; per-block relaxation order is unchanged, so the
/// output is bit-identical at any thread count. Requires b to divide n.
void blocked_floyd_warshall(Matrix& d, std::size_t b);

/// The blocked relaxation kernel carrying next-hop bookkeeping: whenever
/// c[i][j] improves via a[i][k] + b[k][j], the successor of the (i, j) pair
/// is inherited from the (i, k) pair: next_c[i][j] = next_a[i][k]. Aliasing
/// cases mirror fw_block (op1: all three blocks coincide; op21: next_a is
/// the pivot block's next window; ...).
void fw_block_with_next(Span2D<double> c, Span2D<const double> a,
                        Span2D<const double> b, Span2D<std::size_t> next_c,
                        Span2D<const std::size_t> next_a);

/// Blocked Floyd–Warshall that also produces the next-hop matrix (same
/// contract as floyd_warshall_with_paths). Requires b | n. Distances equal
/// the blocked algorithm's; reconstructed paths realize those distances
/// exactly (tested), though rounding may pick different ties than the
/// unblocked reference.
void blocked_floyd_warshall_with_paths(Matrix& d, std::size_t b,
                                       std::vector<std::size_t>& next_hop);

/// Flops counted for one b x b block task (one add + one compare per inner
/// step — the paper counts b^3 additions plus b^3 comparisons).
inline long long fw_block_flops(long long b) { return 2LL * b * b * b; }

/// Flops for the full n-vertex problem.
inline long long fw_total_flops(long long n) { return 2LL * n * n * n; }

}  // namespace rcs::graph
