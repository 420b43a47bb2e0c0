#pragma once
// Functional-plane implementation of the distributed blocked Floyd–Warshall
// design (Section 5.2): ranks own contiguous groups of block-columns, the
// iteration owner computes op1/op22 blocks and broadcasts them, and every
// node's per-phase task quota is split l1 (CPU) : l2 (FPGA). Real distance
// blocks move over MiniMPI; the result is bit-identical to the sequential
// graph::blocked_floyd_warshall (and therefore to the textbook algorithm).

#include "core/fw_analytic.hpp"
#include "linalg/matrix.hpp"

namespace rcs::core {

/// Outcome of a functional Floyd–Warshall run.
struct FwFunctionalResult {
  linalg::Matrix distances;  // all-pairs shortest paths, gathered at rank 0
  RunReport run;
  FwPartition partition;  // the (l1, l2) split in effect
  /// Fault injection/recovery accounting summed over ranks (all zeros when
  /// cfg.faults is null and fault tolerance is off).
  sim::FaultStats faults;
};

/// Run the configured design on a real distance matrix over MiniMPI.
/// Requires b * p | n. `use_soft_fp` routes FPGA-assigned block tasks
/// through the bit-accurate IEEE-754 cores. `cfg.max_iterations` is ignored
/// (the functional plane always runs to completion). When `trace` is
/// non-null and enabled, per-node busy intervals and every message are
/// recorded into it; the D_tt receives trace as phase "op21" and the
/// per-wave pivot-block receives as "op3".
FwFunctionalResult fw_functional(const SystemParams& sys, const FwConfig& cfg,
                                 const linalg::Matrix& d0,
                                 bool use_soft_fp = false,
                                 sim::TraceRecorder* trace = nullptr);

}  // namespace rcs::core
