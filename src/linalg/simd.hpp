#pragma once
// Runtime-dispatched SIMD microkernels for the packed GEMM engine.
//
// The microkernel computes an MR x NR (8x8) block of C against packed A/B
// micropanels:
//
//   acc[ir][jr] += sum over l in [0, kc) of ap[l*MR + ir] * bp[l*NR + jr]
//
// with l strictly ascending and every lane updated as an unfused IEEE
// multiply followed by an IEEE add (no FMA contraction — the repo builds
// with -ffp-contract=off and the vector paths use separate mul/add
// instructions). Every implementation therefore produces bits identical to
// the scalar loop, and to gemm_naive, on any IEEE-754 machine.
//
// The implementation is chosen once at startup from cpuid (best available
// of AVX-512F > AVX2 > scalar), overridable with the environment variable
// RCS_SIMD=scalar|avx2|avx512 (requests above what the CPU supports clamp
// down with a warning) or programmatically with set_level() (tests sweep
// every supported path). The resolved path is reported into the obs build
// provenance so benchmark results say which kernel produced them.

#include <cstddef>

namespace rcs::linalg::simd {

/// Microkernel register-block extents. The packed GEMM engine, the packing
/// routines, and every microkernel agree on these.
inline constexpr std::size_t kMR = 8;  // rows of C per microkernel call
inline constexpr std::size_t kNR = 8;  // cols of C per microkernel call

enum class Level { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// acc[MR*NR] += ap[kc*MR] x bp[kc*NR] in ascending-l order (see above).
/// All pointers may be unaligned; acc is row-major MR x NR.
using MicroKernelFn = void (*)(std::size_t kc, const double* ap,
                               const double* bp, double* acc);

/// Human-readable name ("scalar", "avx2", "avx512").
const char* level_name(Level level);

/// True when this CPU (and compiler) can execute `level`.
bool level_supported(Level level);

/// Best level this CPU supports.
Level max_supported_level();

/// The level in effect: resolved once from RCS_SIMD / cpuid on first use,
/// then stable until set_level() changes it.
Level active_level();

/// Force a dispatch path (tests/benches sweep paths). Throws rcs::Error if
/// the CPU cannot execute it. Not safe to call while kernels are in flight.
void set_level(Level level);

/// The microkernel for a specific level (throws if unsupported) — benches
/// A/B raw kernels without flipping global state.
MicroKernelFn micro_kernel(Level level);

/// The microkernel for active_level().
MicroKernelFn active_micro_kernel();

}  // namespace rcs::linalg::simd
