#pragma once
// Functional-plane implementation of the distributed blocked Floyd–Warshall
// design (Section 5.2): ranks own contiguous groups of block-columns, the
// iteration owner computes op1/op22 blocks and broadcasts them, and every
// node's per-phase task quota is split l1 (CPU) : l2 (FPGA). Real distance
// blocks move over MiniMPI; the result is bit-identical to the sequential
// graph::blocked_floyd_warshall (and therefore to the textbook algorithm).

#include "core/design.hpp"
#include "core/partition.hpp"
#include "core/system.hpp"
#include "linalg/matrix.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

namespace rcs::core {

/// Configuration of one Floyd–Warshall run.
struct FwConfig {
  long long n = 0;  // vertices (b*p must divide n)
  long long b = 0;  // block size
  DesignMode mode = DesignMode::Hybrid;
  /// Block tasks per phase on the CPU. -1 = choose per mode (Eq. 6 for
  /// hybrid, all for processor-only, 0 for FPGA-only).
  long long l1 = -1;
  /// Run only the first `max_iterations` block iterations (-1 = all); Fig. 7
  /// times iteration 0. The gathered distances are then only partly closed.
  int max_iterations = -1;
  /// Lookahead comm/compute overlap: the owner fans out D_tt and the op22
  /// pivot-column blocks over the NIC (isend) instead of serializing them
  /// on its CPU, and the per-iteration barrier is dropped. Receives stay
  /// where their data is consumed: a pivot block the owner sent a wave
  /// ahead has already arrived behind the current wave's compute. Distances
  /// are byte-identical to the blocking schedule; only the schedule (and
  /// therefore the clocks) moves.
  bool lookahead = false;
  /// Fault injection: schedule of slowdowns/link faults/bit-flips applied
  /// during the run (must outlive it). Bit-flips target the FPGA-assigned
  /// wave tasks, counted per rank in streaming order. nullptr = the
  /// fault-free path.
  const sim::FaultPlan* faults = nullptr;
  /// Fault tolerance: dual-modular redundancy on FPGA-assigned wave tasks —
  /// min-plus results carry no exploitable checksum (the tropical semiring
  /// has no subtraction), so each FPGA task is re-solved from its snapshot
  /// on the CPU, compared bitwise, and repaired from the check copy on
  /// mismatch. A straggling owner/peer only slows its wave — the wave
  /// structure re-runs the lost work by construction, so distances stay
  /// bit-identical under any slowdown.
  bool fault_tolerance = false;
};

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
/// through the bit-accurate IEEE-754 cores. An empty `d0` makes the run
/// cost-only (functional_run.hpp): the same schedule, clocks, bytes and
/// trace as a full run, no distances; it rejects a fault plan with
/// bit-flips, whose DMR outcome depends on the data. When `trace` is
/// non-null and enabled, per-node busy intervals and every message are
/// recorded into it; the D_tt receives trace as phase "op21" and the
/// per-wave pivot-block receives as "op3".
FwFunctionalResult fw_functional(const SystemParams& sys, const FwConfig& cfg,
                                 const linalg::Matrix& d0,
                                 bool use_soft_fp = false,
                                 sim::TraceRecorder* trace = nullptr);

}  // namespace rcs::core
