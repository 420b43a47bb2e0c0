#pragma once
// Hybrid Cholesky factorization — the design model of Section 4 applied to
// the third dense factorization of the hybrid-linear-algebra family ([22]):
// A = L L^T for symmetric positive definite A.
//
// Task structure per block iteration t (right-looking, lower triangle):
//   opPOTRF — Cholesky of the diagonal block (processor, panel node)
//   opL     — L_ut = A_ut L_tt^-T for u > t (processor, panel node)
//   opMM    — E_uv = L_ut L_vt^T for u >= v > t (hybrid split b_f : b_p
//             across the p-1 worker nodes, exactly the LU opMM machinery
//             with the second operand transposed)
//   opMS    — A_uv -= E_uv at the block's owner
// Only the lower triangle is touched: m(m+1)/2 trailing tasks per
// iteration instead of LU's m^2, so the serial panel chain weighs more and
// the hybrid's advantage is correspondingly smaller — a useful contrast
// the ext_cholesky bench quantifies.
//
// cholesky_functional runs lu_functional's executed schedule
// (core/lu_functional.cpp) under its symmetric switch: the same panel
// pipeline, worker shares, opMS at the owners and per-iteration barrier.
// It never sets LU's lookahead, faults, fault_tolerance,
// straggler_timeout_s or max_iterations.

#include "core/design.hpp"
#include "core/partition.hpp"
#include "core/system.hpp"
#include "linalg/matrix.hpp"
#include "sim/trace.hpp"

namespace rcs::core {

/// Configuration of one Cholesky run.
struct CholConfig {
  long long n = 0;  // matrix dimension (b must divide n)
  long long b = 0;  // block size
  DesignMode mode = DesignMode::Hybrid;
  long long b_f = -1;  // -1 = resolve per mode (Eq. 4 for hybrid)
  int l = -1;          // opMM tasks served per panel operation (-1 = Eq. 5)
  SendFanout fanout = SendFanout::SerialAll;
};

/// Functional run outcome.
struct CholFunctionalResult {
  /// Gathered at rank 0: lower triangle (incl. diagonal) holds L; the
  /// strict upper triangle holds the untouched input.
  linalg::Matrix factored;
  RunReport run;
  MmPartition partition;
  int l = 0;
};

/// Factor real data over MiniMPI; the result is bit-identical to
/// linalg::potrf_blocked on the same matrix. An empty `a` makes the run
/// cost-only (functional_run.hpp): the same schedule, clocks, bytes and
/// trace, no factor. As in LU, the C/D stripe receives trace as phase
/// "opMM" and the E-share receives as "opMS".
CholFunctionalResult cholesky_functional(const SystemParams& sys,
                                         const CholConfig& cfg,
                                         const linalg::Matrix& a,
                                         bool use_soft_fp = false,
                                         sim::TraceRecorder* trace = nullptr);

}  // namespace rcs::core
