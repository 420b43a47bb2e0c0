#pragma once
// Functional + cycle model of the FPGA matrix-multiply PE array of Zhuo &
// Prasanna, "Scalable and Modular Algorithms for Floating-Point Matrix
// Multiplication on FPGAs" (IPDPS 2004 — reference [21]).
//
// Architecture: k processing elements, each with one floating-point
// multiplier core and one adder core (2 flops per PE per cycle). The design
// decomposes E += C x D into k x k submatrix multiplies; each submatrix
// multiply has an effective latency of k^2 design clock cycles (the PEs
// stream one column of C and one row of D per cycle and accumulate in
// registers/BRAM). Operands stream from node DRAM; partial results live in
// on-board SRAM.
//
// Functionally, each output element accumulates its dot product in ascending
// inner-index order — the same order as the host gemm — so CPU-computed and
// FPGA-computed partitions of a hybrid product are bit-consistent. Every
// native-FP product streams through the packed GEMM engine (operand strips
// packed into contiguous scratch, computed with gemm's 8x8 microkernel,
// written back per result strip — the emulation's read -> compute -> write
// pipeline; only products big enough to split use the shared
// common::ThreadPool); the soft-float cores keep a plain row loop.
// Per-entry accumulation order is the same on every path, so outputs are
// identical at any RCS_THREADS and at any vector width.

#include <cstdint>

#include "common/span2d.hpp"
#include "fparith/backend.hpp"
#include "fpga/device.hpp"

namespace rcs::linalg {
class PackedA;
class PackedB;
}  // namespace rcs::linalg

namespace rcs::fpga {

class MatMulArray {
 public:
  /// Binds the array to a device configuration (k PEs at F_f).
  explicit MatMulArray(DeviceConfig dev);

  const DeviceConfig& device() const { return dev_; }
  int k() const { return dev_.pe_count; }

  /// Number of design clock cycles to compute an m x inner by inner x n
  /// product: ceil(m/k) * ceil(inner/k) * ceil(n/k) submatrix multiplies at
  /// k^2 cycles each. For the paper's stripe shapes (m = b_f, inner = k,
  /// n = b/(p-1)) this reduces to b_f * b / (p-1) cycles.
  long long cycles(long long m, long long inner, long long n) const;

  /// Seconds for the same product at the design clock.
  double seconds(long long m, long long inner, long long n) const {
    return dev_.seconds_for_cycles(static_cast<double>(cycles(m, inner, n)));
  }

  /// Bytes streamed from DRAM into the array for an m x inner and an
  /// inner x n operand (result write-back is overlapped, per §4.2).
  std::uint64_t input_bytes(long long m, long long inner, long long n) const {
    return static_cast<std::uint64_t>(m * inner + inner * n) * 8u;
  }

  /// On-board SRAM words needed to hold the m x n partial-result tile.
  std::uint64_t sram_words(long long m, long long n) const {
    return static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n);
  }

  /// Functional E += C x D with the host FPU (fast path; bit-identical to
  /// the soft-core path on IEEE hardware). Throws when the result tile
  /// exceeds the device's SRAM.
  void multiply_accumulate(Span2D<const double> c, Span2D<const double> d,
                           Span2D<double> e) const;

  /// Functional E += C x D through the bit-accurate software IEEE-754 cores
  /// (slow; used by tests to pin down hardware-equivalence).
  void multiply_accumulate_soft(Span2D<const double> c, Span2D<const double> d,
                                Span2D<double> e) const;

  /// Functional E += C x D^T (the Cholesky trailing update streams the
  /// second operand row-wise; cycle cost is identical to the NN form).
  void multiply_accumulate_nt(Span2D<const double> c, Span2D<const double> d,
                              Span2D<double> e) const;

  /// Bit-accurate-core variant of the NT form.
  void multiply_accumulate_nt_soft(Span2D<const double> c,
                                   Span2D<const double> d,
                                   Span2D<double> e) const;

  /// Functional E += C x D (C x D^T when `d` was packed transposed) from
  /// operands packed once, so a stripe that feeds several products is
  /// packed once: the native path's kernel, checks and telemetry without
  /// its packs. Native FP only; the soft cores read views element-wise.
  void multiply_accumulate(const linalg::PackedA& c, const linalg::PackedB& d,
                           Span2D<double> e) const;

  /// Recompute one element of E += C x D exactly as the array computes it —
  /// `init` (the pre-call value of e(i, j)) accumulated with c(i, l) * d(l, j)
  /// in ascending l — so an ABFT repair reproduces the uncorrupted result
  /// bit-for-bit. `soft` selects the bit-accurate cores; `nt` the D^T form.
  double element(Span2D<const double> c, Span2D<const double> d,
                 std::size_t i, std::size_t j, double init, bool soft,
                 bool nt = false) const;

 private:
  /// E += C x D (or C x D^T with `nt`) on the packed engine, or on the
  /// bit-accurate cores with `soft`.
  void mac(Span2D<const double> c, Span2D<const double> d, Span2D<double> e,
           bool soft, bool nt) const;

  /// Every call's SRAM check and fpga.mm.{calls,macs,stalls} telemetry for
  /// an E of m x n over `inner`.
  void note_call(std::size_t m, std::size_t inner, std::size_t n,
                 bool nt) const;

  DeviceConfig dev_;
};

}  // namespace rcs::fpga
