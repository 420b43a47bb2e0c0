#include "graph/floyd_warshall.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace rcs::graph {

const char* kernel_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "baseline";
#endif
}

void floyd_warshall(Matrix& d) {
  RCS_CHECK_MSG(d.rows() == d.cols(), "floyd_warshall: square matrix required");
  const std::size_t n = d.rows();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = d(i, k);
      if (dik == kNoEdge) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double via = dik + d(k, j);
        if (via < d(i, j)) d(i, j) = via;
      }
    }
  }
}

void floyd_warshall_with_paths(Matrix& d, std::vector<std::size_t>& next_hop) {
  RCS_CHECK_MSG(d.rows() == d.cols(), "floyd_warshall: square matrix required");
  const std::size_t n = d.rows();
  next_hop.assign(n * n, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && d(i, j) != kNoEdge) next_hop[i * n + j] = j;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = d(i, k);
      if (dik == kNoEdge) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double via = dik + d(k, j);
        if (via < d(i, j)) {
          d(i, j) = via;
          next_hop[i * n + j] = next_hop[i * n + k];
        }
      }
    }
  }
}

std::vector<std::size_t> reconstruct_path(
    const std::vector<std::size_t>& next_hop, std::size_t n, std::size_t i,
    std::size_t j) {
  RCS_CHECK_MSG(next_hop.size() == n * n, "reconstruct_path: bad next_hop size");
  RCS_CHECK_MSG(i < n && j < n, "reconstruct_path: vertex out of range");
  std::vector<std::size_t> path;
  if (i == j) {
    path.push_back(i);
    return path;
  }
  if (next_hop[i * n + j] == static_cast<std::size_t>(-1)) return path;
  std::size_t cur = i;
  path.push_back(cur);
  while (cur != j) {
    cur = next_hop[cur * n + j];
    path.push_back(cur);
    RCS_CHECK_MSG(path.size() <= n, "reconstruct_path: cycle detected");
  }
  return path;
}

namespace {

// The register paths hold c in GCC vector types as wide as the widest ISA
// this file is built for, so one source gives zmm, ymm or xmm code.
#if defined(__AVX512F__)
constexpr std::size_t kVecBytes = 64;
constexpr std::size_t kVecRegs = 32;
#elif defined(__AVX2__)
constexpr std::size_t kVecBytes = 32;
constexpr std::size_t kVecRegs = 16;
#else
constexpr std::size_t kVecBytes = 16;
constexpr std::size_t kVecRegs = 16;
#endif
typedef double Vec __attribute__((vector_size(kVecBytes)));
constexpr std::size_t kLanes = kVecBytes / sizeof(double);

Vec load(const double* p) {
  Vec v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, Vec v) { std::memcpy(p, &v, sizeof v); }

// The row loop's select on every lane. via < c ? via : c is exactly what
// minpd computes, NaN and -0.0 included.
Vec relax(Vec c, Vec via) { return via < c ? via : c; }

// The byte range [lo, hi) of a view's elements; empty for an empty view.
std::pair<std::uintptr_t, std::uintptr_t> extent(Span2D<const double> v) {
  if (v.empty()) return {0, 0};
  const auto lo = reinterpret_cast<std::uintptr_t>(v.data());
  return {lo, lo + ((v.rows() - 1) * v.stride() + v.cols()) * sizeof(double)};
}

// Whether two views share an element. Views of one stride are compared by
// their row and column ranges, so blocks of one matrix side by side in the
// same rows are disjoint; views of different strides, or offset by part of
// an element, by their byte extents.
bool overlap(Span2D<const double> x, Span2D<const double> y) {
  auto [x0, x1] = extent(x);
  auto [y0, y1] = extent(y);
  if (!(x0 < y1 && y0 < x1)) return false;
  const std::size_t s = x.stride();
  if (y.stride() != s) return true;
  if (y0 < x0) {
    std::swap(x, y);
    std::swap(x0, y0);
  }
  if ((y0 - x0) % sizeof(double) != 0) return true;
  // In x's frame, y's row r starts at row dr + r, column dc, and its
  // columns past the stride run on into the next row from column 0.
  const std::size_t d = (y0 - x0) / sizeof(double);
  const std::size_t dr = d / s;
  const std::size_t dc = d % s;
  const bool same_row = dr < x.rows() && dc < x.cols();
  const bool next_row = dc + y.cols() > s && dr + 1 < x.rows();
  return same_row || next_row;
}

// The k-outer row loop. Each (k, i) reads a(i, k) before row i's j loop
// writes, so it is correct for every aliasing of c with a or b.
void relax_rows(Span2D<double> c, Span2D<const double> a,
                Span2D<const double> b) {
  for (std::size_t k = 0; k < a.cols(); ++k) {
    const double* bk = b.row(k);
    for (std::size_t i = 0; i < c.rows(); ++i) {
      const double aik = a(i, k);
      double* ci = c.row(i);
      // A select, not a conditional store: same result (NaN and -0.0
      // included), and it vectorizes. The branchy scalar form's speed
      // swung by ~20% with where the linker happened to place it.
      for (std::size_t j = 0; j < c.cols(); ++j) {
        const double via = aik + bk[j];
        ci[j] = via < ci[j] ? via : ci[j];
      }
    }
  }
}

// op3's tile of c: 4 rows of 4 zmm, or of 2 ymm or xmm.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileVecs = kVecRegs / 8;
constexpr std::size_t kTileCols = kTileVecs * kLanes;

void relax_tile(double* c, std::size_t ldc, const double* a, std::size_t lda,
                const double* b, std::size_t ldb, std::size_t kk) {
  Vec t[kTileRows][kTileVecs] = {};
  for (std::size_t r = 0; r < kTileRows; ++r) {
    for (std::size_t v = 0; v < kTileVecs; ++v) {
      t[r][v] = load(c + r * ldc + v * kLanes);
    }
  }
  for (std::size_t k = 0; k < kk; ++k) {
    Vec bk[kTileVecs] = {};
    for (std::size_t v = 0; v < kTileVecs; ++v) {
      bk[v] = load(b + k * ldb + v * kLanes);
    }
    for (std::size_t r = 0; r < kTileRows; ++r) {
      const double aik = a[r * lda + k];
      for (std::size_t v = 0; v < kTileVecs; ++v) {
        t[r][v] = relax(t[r][v], aik + bk[v]);
      }
    }
  }
  for (std::size_t r = 0; r < kTileRows; ++r) {
    for (std::size_t v = 0; v < kTileVecs; ++v) {
      store(c + r * ldc + v * kLanes, t[r][v]);
    }
  }
}

// op3: c aliases neither operand, so each entry depends only on itself, a
// and b, and the ragged edges may take the row loop after the tiles.
void relax_disjoint(Span2D<double> c, Span2D<const double> a,
                    Span2D<const double> b) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t kk = a.cols();
  const std::size_t mt = m - m % kTileRows;
  const std::size_t nt = n - n % kTileCols;
  for (std::size_t i = 0; i < mt; i += kTileRows) {
    for (std::size_t j = 0; j < nt; j += kTileCols) {
      relax_tile(c.row(i) + j, c.stride(), a.row(i), a.stride(),
                 b.data() + j, b.stride(), kk);
    }
  }
  if (nt < n) {
    relax_rows(c.block(0, nt, m, n - nt), a, b.block(0, nt, kk, n - nt));
  }
  if (mt < m) {
    relax_rows(c.block(mt, 0, m - mt, nt), a.block(mt, 0, m - mt, kk),
               b.block(0, 0, kk, nt));
  }
}

// op22 holds whole rows of c in registers when a row is at most kRowVecs
// vectors (64 doubles at AVX-512, 16 at AVX2, 8 at SSE2); wider rows would
// leave room for only one row at a time, which is no faster than the row
// loop.
constexpr std::size_t kRowVecs = kVecRegs / 4;

// op22 (c = a, b disjoint): row i of c depends only on itself and b, so rows
// of NV vectors stay in registers, R at a time in up to three quarters of
// the register file, and a(i, k) is lane k of the row as steps 0..k-1 left
// it.
template <std::size_t NV>
void relax_rows_in_registers(Span2D<double> c, Span2D<const double> b) {
  constexpr std::size_t R = std::min<std::size_t>(kVecRegs * 3 / 4 / NV, 4);
  const std::size_t m = c.rows();
  std::size_t i = 0;
  for (; i + R <= m; i += R) {
    Vec row[R][NV] = {};
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < NV; ++v) {
        row[r][v] = load(c.row(i + r) + v * kLanes);
      }
    }
    for (std::size_t kv = 0; kv < NV; ++kv) {
      // k = kv * kLanes + L, with the lane index L a constant.
      [&]<std::size_t... L>(std::index_sequence<L...>) {
        (
            [&] {
              const double* bk = b.row(kv * kLanes + L);
              double aik[R] = {};
              for (std::size_t r = 0; r < R; ++r) aik[r] = row[r][kv][L];
              for (std::size_t v = 0; v < NV; ++v) {
                const Vec bv = load(bk + v * kLanes);
                for (std::size_t r = 0; r < R; ++r) {
                  row[r][v] = relax(row[r][v], aik[r] + bv);
                }
              }
            }(),
            ...);
      }(std::make_index_sequence<kLanes>{});
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < NV; ++v) {
        store(c.row(i + r) + v * kLanes, row[r][v]);
      }
    }
  }
  if (i < m) {
    const Span2D<double> rest = c.block(i, 0, m - i, c.cols());
    relax_rows(rest, rest, b);
  }
}

// Runs op22 with its rows in registers if they are NV..kRowVecs whole
// vectors wide; false (and c untouched) otherwise.
template <std::size_t NV = 1>
bool relax_in_place(Span2D<double> c, Span2D<const double> b) {
  if constexpr (NV > kRowVecs) {
    return false;
  } else {
    if (c.cols() != NV * kLanes) return relax_in_place<NV + 1>(c, b);
    relax_rows_in_registers<NV>(c, b);
    return true;
  }
}

}  // namespace

void fw_block(Span2D<double> c, Span2D<const double> a,
              Span2D<const double> b) {
  RCS_CHECK_MSG(a.cols() == b.rows() && c.rows() == a.rows() &&
                    c.cols() == b.cols(),
                "fw_block shape mismatch");
  if (c.empty() || a.cols() == 0) return;
  if (!overlap(c, a) && !overlap(c, b)) {
    relax_disjoint(c, a, b);
    return;
  }
  const bool c_is_a = c.data() == a.data() && c.cols() == a.cols() &&
                      c.stride() == a.stride();
  if (c_is_a && !overlap(c, b) && relax_in_place(c, b)) return;
  relax_rows(c, a, b);
}

void fw_block_with_next(Span2D<double> c, Span2D<const double> a,
                        Span2D<const double> b, Span2D<std::size_t> next_c,
                        Span2D<const std::size_t> next_a) {
  RCS_CHECK_MSG(a.cols() == b.rows() && c.rows() == a.rows() &&
                    c.cols() == b.cols(),
                "fw_block_with_next shape mismatch");
  RCS_CHECK_MSG(next_c.rows() == c.rows() && next_c.cols() == c.cols() &&
                    next_a.rows() == a.rows() && next_a.cols() == a.cols(),
                "fw_block_with_next next-hop shape mismatch");
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t kk = a.cols();
  for (std::size_t k = 0; k < kk; ++k) {
    const double* bk = b.row(k);
    for (std::size_t i = 0; i < m; ++i) {
      const double aik = a(i, k);
      const std::size_t via = next_a(i, k);
      double* ci = c.row(i);
      for (std::size_t j = 0; j < n; ++j) {
        const double cand = aik + bk[j];
        if (cand < ci[j]) {
          ci[j] = cand;
          next_c(i, j) = via;
        }
      }
    }
  }
}

void blocked_floyd_warshall_with_paths(Matrix& d, std::size_t b,
                                       std::vector<std::size_t>& next_hop) {
  RCS_CHECK_MSG(d.rows() == d.cols(), "square matrix required");
  const std::size_t n = d.rows();
  RCS_CHECK_MSG(b > 0 && n % b == 0,
                "block size " << b << " must divide n = " << n);
  next_hop.assign(n * n, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && d(i, j) != kNoEdge) next_hop[i * n + j] = j;
    }
  }
  Span2D<std::size_t> next(next_hop.data(), n, n, n);
  const std::size_t nb = n / b;
  auto blk = [&](std::size_t u, std::size_t v) {
    return d.block(u * b, v * b, b, b);
  };
  auto nblk = [&](std::size_t u, std::size_t v) {
    return next.block(u * b, v * b, b, b);
  };
  for (std::size_t t = 0; t < nb; ++t) {
    fw_block_with_next(blk(t, t), blk(t, t), blk(t, t), nblk(t, t),
                       nblk(t, t));
    // Step-2 blocks touch disjoint (t,q) / (q,t) blocks and only read the
    // diagonal, so the q wave parallelizes block-for-block.
    common::parallel_for(0, nb, 1, [&](std::size_t q0, std::size_t q1) {
      for (std::size_t q = q0; q < q1; ++q) {
        if (q == t) continue;
        fw_block_with_next(blk(t, q), blk(t, t), blk(t, q), nblk(t, q),
                           nblk(t, t));
        fw_block_with_next(blk(q, t), blk(q, t), blk(t, t), nblk(q, t),
                           nblk(q, t));
      }
    });
    // Step-3 blocks (u,v) only read row t and column t: independent.
    common::parallel_for(0, nb, 1, [&](std::size_t u0, std::size_t u1) {
      for (std::size_t u = u0; u < u1; ++u) {
        if (u == t) continue;
        for (std::size_t v = 0; v < nb; ++v) {
          if (v == t) continue;
          fw_block_with_next(blk(u, v), blk(u, t), blk(t, v), nblk(u, v),
                             nblk(u, t));
        }
      }
    });
  }
}

void blocked_floyd_warshall(Matrix& d, std::size_t b) {
  RCS_CHECK_MSG(d.rows() == d.cols(), "square matrix required");
  const std::size_t n = d.rows();
  RCS_CHECK_MSG(b > 0 && n % b == 0,
                "block size " << b << " must divide n = " << n);
  const std::size_t nb = n / b;
  auto blk = [&](std::size_t u, std::size_t v) {
    return d.block(u * b, v * b, b, b);
  };
  for (std::size_t t = 0; t < nb; ++t) {
    // Step 1 (op1): diagonal block.
    fw_block(blk(t, t), blk(t, t), blk(t, t));
    // Step 2 (op21 row blocks, op22 column blocks): each q writes only its
    // own (t,q)/(q,t) pair and reads the diagonal — parallel over q.
    common::parallel_for(0, nb, 1, [&](std::size_t q0, std::size_t q1) {
      for (std::size_t q = q0; q < q1; ++q) {
        if (q == t) continue;
        fw_block(blk(t, q), blk(t, t), blk(t, q));  // op21
        fw_block(blk(q, t), blk(q, t), blk(t, t));  // op22
      }
    });
    // Step 3 (op3): remaining blocks, independent given row/column t —
    // parallel over block rows. Relaxation order within a block is
    // unchanged, so distances match the serial schedule bit-for-bit.
    common::parallel_for(0, nb, 1, [&](std::size_t u0, std::size_t u1) {
      for (std::size_t u = u0; u < u1; ++u) {
        if (u == t) continue;
        for (std::size_t v = 0; v < nb; ++v) {
          if (v == t) continue;
          fw_block(blk(u, v), blk(u, t), blk(t, v));
        }
      }
    });
  }
}

}  // namespace rcs::graph
