#pragma once
// Bit-accurate software implementation of IEEE-754 binary64 arithmetic with
// round-to-nearest-even, modelling the custom double-precision floating-point
// cores the paper deploys on the FPGA (Govindu et al., "A Library of
// Parameterizable Floating-Point Cores for FPGAs", ERSA 2005 — reference [8]).
//
// The cores implement the default IEEE environment: round-to-nearest-even,
// subnormal support, quiet-NaN propagation, no exception traps. Results are
// bit-identical to compliant hardware (and to the host FPU in its default
// rounding mode), which the test suite verifies exhaustively on random and
// directed operand patterns.

#include <cstdint>

namespace rcs::fparith {

/// Reinterpret a double as its IEEE-754 bit pattern.
std::uint64_t to_bits(double x);

/// Reinterpret an IEEE-754 bit pattern as a double.
double from_bits(std::uint64_t bits);

/// Bit-accurate binary64 addition (round-to-nearest-even).
double add(double a, double b);

/// Bit-accurate binary64 subtraction (round-to-nearest-even).
double sub(double a, double b);

/// Bit-accurate binary64 multiplication (round-to-nearest-even).
double mul(double a, double b);

/// Three-way comparison mirroring a hardware comparator core.
/// Returns -1 (a < b), 0 (equal, with -0 == +0), +1 (a > b),
/// +2 (unordered: at least one NaN).
int compare(double a, double b);

/// IEEE minNum-style minimum: returns the smaller operand; if exactly one
/// operand is NaN, returns the other; if both are NaN, returns quiet NaN.
/// This is the select operation the Floyd–Warshall comparator feeds.
double min(double a, double b);

/// Fused building block of the Floyd–Warshall PE: min(acc, a + b) where the
/// addition itself is the bit-accurate core.
inline double relax(double acc, double a, double b) {
  return min(acc, add(a, b));
}

/// Pipeline descriptor for one floating-point core, as synthesized on a
/// Virtex-II Pro class device (reference [8] reports deeply pipelined cores
/// with single-cycle throughput). `latency_cycles` is the fill depth;
/// `issue_interval` is cycles between accepted operand pairs (1 = fully
/// pipelined).
struct CorePipeline {
  int latency_cycles;
  int issue_interval;

  /// Cycles to stream n back-to-back operations through the pipeline.
  long long cycles_for(long long n) const {
    if (n <= 0) return 0;
    return latency_cycles + (n - 1) * issue_interval;
  }
};

/// Pipeline depths representative of the paper's core library at ~130 MHz on
/// XC2VP50 (reference [8]).
constexpr CorePipeline kAdderPipeline{14, 1};
constexpr CorePipeline kMultiplierPipeline{11, 1};

}  // namespace rcs::fparith
