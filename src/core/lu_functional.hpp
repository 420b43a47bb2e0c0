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
//
// The schedule has two entry points: lu_functional below, and
// cholesky_functional (core/cholesky.hpp), which runs it as the symmetric
// factorization A = L L^T.

#include "core/design.hpp"
#include "core/partition.hpp"
#include "core/system.hpp"
#include "linalg/matrix.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

namespace rcs::core {

/// Configuration of one LU run.
struct LuConfig {
  long long n = 0;  // matrix dimension (b must divide n)
  long long b = 0;  // block size
  DesignMode mode = DesignMode::Hybrid;
  /// FPGA row share of the C stripe. -1 = choose per mode (Eq. 4 for
  /// hybrid, 0 for processor-only, b for FPGA-only).
  long long b_f = -1;
  /// opMM tasks distributed per panel operation (Eq. 5). -1 = solve;
  /// 0 = no interleaving (all stripes sent after the panel completes).
  int l = -1;
  SendFanout fanout = SendFanout::SerialAll;
  /// Run only the first `max_iterations` block iterations (-1 = all); Fig. 6
  /// times iteration 0. The gathered matrix is then only partly factored.
  int max_iterations = -1;
  /// Lookahead comm/compute overlap: the panel fans its C/D stripes out over
  /// the NIC (isend) whatever the fan-out convention, workers return E
  /// shares over the NIC too, and the per-iteration barrier is dropped.
  /// Receives stay where their data is consumed: a message is in the
  /// receiver's mailbox from the moment it is sent, so posting a receive
  /// earlier would move no clock. The factors are byte-identical to the
  /// blocking schedule; only the schedule (and therefore the clocks) moves.
  /// The paper's implementation could not do this ("we used the atomic ACML
  /// routines", §6.2) — this switch quantifies what that cost.
  bool lookahead = false;
  /// Fault injection: schedule of slowdowns/link faults/crashes/bit-flips
  /// applied during the run (must outlive it). nullptr = the fault-free
  /// path, byte-identical to a build without this feature.
  const sim::FaultPlan* faults = nullptr;
  /// Fault tolerance: ABFT row/column checksums on every FPGA opMM share —
  /// detecting corrupted results, repairing single flipped elements exactly
  /// (bit-identical recompute), re-solving wider corruption on the CPU.
  bool fault_tolerance = false;
  /// Straggler tolerance: owners bound their E-share waits by this many
  /// simulated seconds and re-solve a late worker's columns locally from
  /// their stashed stripes (Eq. 4 split, bit-identical). 0 = wait forever.
  /// Requires fault_tolerance.
  double straggler_timeout_s = 0.0;
};

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
/// cores (slow; for verification). An empty `a` makes the run cost-only
/// (functional_run.hpp): the same schedule, clocks, bytes and trace as a
/// full run, no factors; it rejects a fault plan with bit-flips, whose
/// ABFT outcome depends on the data. When `trace` is non-null and enabled,
/// every CPU/DRAM/FPGA busy interval of every node is recorded into it
/// (resources "node<r>.cpu" etc.), with every message; the C/D stripe
/// receives trace as phase "opMM" and the E-share receives as "opMS", so
/// core::analyze_run reports how much of their transfer time hid behind
/// compute.
LuFunctionalResult lu_functional(const SystemParams& sys, const LuConfig& cfg,
                                 const linalg::Matrix& a,
                                 bool use_soft_fp = false,
                                 sim::TraceRecorder* trace = nullptr);

}  // namespace rcs::core
