#pragma once
// Functional-plane implementation of the distributed hybrid LU decomposition
// (Section 5.1): real matrix blocks move between MiniMPI ranks, the hybrid
// opMM split computes its FPGA share through the MatMulArray model and its
// CPU share through the host gemm, and every compute/transfer charges the
// owning rank's virtual clock. The numerical result is bit-identical to the
// sequential blocked LU (linalg::getrf_blocked) — the test suite checks it.
//
// Block ownership follows the paper's frame distribution: block (u, v) lives
// on rank min(u, v) mod p, so the whole panel of iteration t (row t and
// column t of blocks) is owned by rank t mod p — the iteration's panel node.
// opMM results return to the block's owner for the opMS update. (The paper's
// text says "P_t'' where t'' = max{u, v}", which contradicts its own initial
// distribution; we follow the distribution.)

#include "core/lu_analytic.hpp"
#include "linalg/matrix.hpp"

namespace rcs::core {

/// Outcome of a functional LU run.
struct LuFunctionalResult {
  /// In-place factors gathered at rank 0: strictly-lower part holds L (unit
  /// diagonal implied), upper part holds U.
  linalg::Matrix factored;
  RunReport run;
  MmPartition partition;
  int l = 0;  // interleave depth in effect
  /// Fault injection/recovery accounting summed over ranks (all zeros when
  /// cfg.faults is null and fault tolerance is off).
  sim::FaultStats faults;
};

/// Run the configured LU design on real data over MiniMPI.
/// `use_soft_fp` routes the FPGA share through the bit-accurate IEEE-754
/// cores (slow; for verification). `cfg.max_iterations` is ignored — the
/// functional plane always factors completely so the result is checkable.
/// When `trace` is non-null and enabled, every CPU/DRAM/FPGA busy interval
/// of every node is recorded into it (resources "node<r>.cpu" etc.), with
/// every message; the C/D stripe receives trace as phase "opMM" and the
/// E-share receives as "opMS", so core::analyze_run reports how much of
/// their transfer time hid behind compute.
LuFunctionalResult lu_functional(const SystemParams& sys, const LuConfig& cfg,
                                 const linalg::Matrix& a,
                                 bool use_soft_fp = false,
                                 sim::TraceRecorder* trace = nullptr);

}  // namespace rcs::core
