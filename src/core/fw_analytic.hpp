#pragma once
// Analytic (paper-scale) schedule simulator for the distributed blocked
// Floyd–Warshall design of Section 5.2.
//
// Each of the n/b iterations runs as n/b phases. In phase 0 the iteration
// owner t' computes op1 on D_tt and broadcasts it; every node then performs
// its op21 wave. In each subsequent phase, t' computes one op22 (a column-t
// block) and broadcasts it while every node performs n/(bp) op3 tasks split
// l1 (CPU) : l2 (FPGA) per Eq. 6. The simulator tracks the owner and a
// representative non-owner node per phase, including the broadcast cost and
// the CPU/FPGA overlap within a node.

#include <vector>

#include "core/design.hpp"
#include "core/partition.hpp"
#include "core/system.hpp"

namespace rcs::sim {
class FaultPlan;
}

namespace rcs::core {

/// Configuration of one Floyd–Warshall run.
struct FwConfig {
  long long n = 0;  // vertices (b*p must divide n)
  long long b = 0;  // block size
  DesignMode mode = DesignMode::Hybrid;
  /// Block tasks per phase on the CPU. -1 = choose per mode (Eq. 6 for
  /// hybrid, all for processor-only, 0 for FPGA-only).
  long long l1 = -1;
  /// Simulate only the first `max_iterations` block iterations (-1 = all);
  /// Fig. 7 uses 1. Analytic plane only.
  int max_iterations = -1;
  /// Charge the owner's op1/op22 broadcasts as a binomial tree
  /// (ceil(log2 p) transfer times) instead of root-serialized (p-1) — an
  /// extension over the paper's scheme. Analytic plane only: the
  /// functional owner always fans out root-serialized (core::fan_out).
  bool tree_bcast = false;
  /// Lookahead comm/compute overlap (functional plane): the owner fans out
  /// D_tt and the op22 pivot-column blocks over the NIC (isend) instead of
  /// serializing them on its CPU, and the per-iteration barrier is dropped.
  /// Receives stay where their data is consumed: a pivot block the owner
  /// sent a wave ahead has already arrived behind the current wave's
  /// compute. Distances are byte-identical to the blocking schedule; only
  /// the schedule (and therefore the clocks) moves.
  bool lookahead = false;
  /// Fault injection: schedule of slowdowns/link faults/crashes/bit-flips
  /// applied during the functional run (must outlive it). Bit-flips target
  /// the FPGA-assigned wave tasks, counted per rank in streaming order.
  /// nullptr = the fault-free path. The analytic plane ignores it.
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

/// Analytic run outcome.
struct FwAnalyticReport {
  RunReport run;
  FwPartition partition;  // the (l1, l2) split in effect
  std::vector<double> iteration_seconds;
  double owner_busy_seconds = 0.0;   // iteration-owner CPU busy time
  double worker_busy_seconds = 0.0;  // one non-owner node's busy time
};

/// Simulate the configured Floyd–Warshall design on `sys`.
FwAnalyticReport fw_analytic(const SystemParams& sys, const FwConfig& cfg);

}  // namespace rcs::core
