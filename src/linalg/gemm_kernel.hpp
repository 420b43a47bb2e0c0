#pragma once
// Internal blocking constants, microkernel and compute loop of the packed
// GEMM (implemented in blas.cpp). The public face is linalg::PackedA /
// PackedB and the gemm overloads in blas.hpp; the FPGA MatMulArray
// emulation runs the same loop without gemm's telemetry, so the host and
// "hardware" kernels share one microkernel, one packing layout, and one
// bit-identity argument.
//
// Packed layouts (extents kMR / kNR). For the KC-deep chunk of the inner
// dimension starting at k0 (kc = its depth):
//   A strip ip: strip[l*MR + ir] = a(ip*MR + ir, k0 + l)
//   B panel jp: panel[l*NR + jr] = b(k0 + l, jp*NR + jr)          (NN)
//               panel[l*NR + jr] = b(jp*NR + jr, k0 + l)          (NT)
// The chunk's strips start at k0 * strips * MR and lie kc * MR apart (its
// panels at k0 * panels * NR, kc * NR apart), so a pack holds exactly
// strips * depth * MR (panels * depth * NR) doubles. Ragged edges are
// zero-padded so the microkernel always reads full MR/NR lanes; the padded
// lanes never reach C.

#include <cstddef>

#include "common/span2d.hpp"
#include "linalg/blas.hpp"

namespace rcs::linalg::detail {

/// Microkernel register-block extents: rows and columns of C per call.
inline constexpr std::size_t kMR = 8;
inline constexpr std::size_t kNR = 8;

/// Cache-blocking extents of the packed engine.
inline constexpr std::size_t kKC = 256;  // k extent of a packed chunk
inline constexpr std::size_t kNC = 512;  // columns per slab of C
inline constexpr std::size_t kMC = 64;   // rows per parallel i-tile
static_assert(kMC % kMR == 0 && kNC % kNR == 0,
              "tiles and slabs hold whole strips and panels");

/// acc[kMR * kNR] += ap[kc * kMR] x bp[kc * kNR]: one A strip times one B
/// panel into a row-major 8 x 8 tile, every entry updated as acc + a * b
/// (one IEEE multiply, then one IEEE add) with l ascending, so its bits are
/// gemm_naive's. Pointers may be unaligned. Defined in blas.cpp only, so it
/// builds at the hot-kernel ISA whoever calls it.
void micro_kernel(std::size_t kc, const double* ap, const double* bp,
                  double* acc);

/// C += A * B from packed operands: per kNC-column slab, one parallel
/// region over kMC-row tiles; each tile task applies the k-chunks in
/// ascending order, so every C entry accumulates in ascending inner-index
/// order (bit-identical to gemm_naive at any thread count and at any
/// vector width). Shapes are NOT validated here; callers check first.
void gemm_packed(const PackedA& a, const PackedB& b, Span2D<double> c);

/// C += A * B (A * B^T with `b_transposed`) from views: per kNC-column
/// slab, packs B's slab and A into per-thread scratch and runs gemm_packed.
/// Every slab packs A again. Shapes are NOT validated here.
void gemm_views(Span2D<const double> a, Span2D<const double> b,
                Span2D<double> c, bool b_transposed);

}  // namespace rcs::linalg::detail
