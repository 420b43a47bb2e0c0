#pragma once
// The paper's workload-partition solvers.
//
//  * Eq. 1/2/4 — splittable tasks (block matrix multiply): choose the FPGA
//    share b_f (rows of the C stripe) so that the FPGA's stripe time equals
//    the processor's stripe time plus the non-overlappable transfer terms:
//        T_f(b_f) = T_comm + T_mem(b_f) + T_p(b - b_f)            (Eq. 4)
//    with, per stripe (inner dimension k, p - 1 worker nodes):
//        T_f    = b_f * b / ((p-1) * F_f)
//        T_p    = 2 * b_p * b * k / ((p-1) * R_gemm)
//        T_mem  = (b_f * k + b * k/(p-1)) * b_w / B_d
//        T_comm = 2 * b * k * b_w / B_n
//
//  * Eq. 5 — inter-node load balancing for LU: the number l of opMM tasks
//    the worker nodes run per opLU/opL/opU on the panel node:
//        max{T_lu, T_opL, T_opU} + l * (b/k) * T_comm = l * W_f
//    where W_f = b_f * b^2 / ((p-1) * k * F_f) is one opMM's FPGA time.
//
//  * Eq. 6 — non-splittable tasks (Floyd–Warshall): whole-task counts l1
//    (CPU) and l2 (FPGA) per phase with l1 + l2 = n/(b*p):
//        l1 * T_p + T_comm + l2 * T_mem = l2 * T_f
//    with T_p = 2 b^3 / R_fw, T_f = 2 b^3 / (k F_f),
//         T_mem = 2 b^2 b_w / B_d, T_comm = b^2 b_w / B_n.
//
// Note the published Eq. 2 divides D_f by (B_d * F_f); dimensional analysis
// and Eq. 1 show the intended term is D_f / B_d, which is what these solvers
// implement.

#include "core/design.hpp"
#include "core/system.hpp"

namespace rcs::core {

/// Per-stripe timing components and the chosen split for one b x b block
/// matrix multiply distributed over p-1 worker nodes.
struct MmPartition {
  long long b = 0;    // block size
  long long b_f = 0;  // C-stripe rows assigned to the FPGA (multiple of k)
  long long b_p = 0;  // rows assigned to the processor (b - b_f)
  double t_f_stripe = 0.0;     // FPGA time per k-wide stripe
  double t_p_stripe = 0.0;     // CPU compute time per stripe
  double t_mem_stripe = 0.0;   // DRAM->FPGA transfer per stripe
  double t_comm_stripe = 0.0;  // network time per stripe (one destination)
  double residual = 0.0;       // Eq. 4 LHS - RHS at the chosen b_f

  /// Steady-state period of one k-wide stripe on a worker: the FPGA
  /// pipeline overlaps the next stripe's transfer and the CPU's compute, so
  /// the period is the slower of the two sides. A whole opMM takes (b/k)
  /// periods.
  double stripe_period_seconds() const;

  /// On-board SRAM words the FPGA's partial results occupy (must fit).
  std::uint64_t sram_words(int p) const;
};

/// Solve Eq. 4 for b_f (rounded to a multiple of k, clamped to [0, b]).
/// `include_transfers = false` drops T_comm and T_mem — the naive computing-
/// power-ratio split of reference [22], kept for the ablation bench.
MmPartition solve_mm_partition(const SystemParams& sys, long long b,
                               bool include_transfers = true);

/// Evaluate the partition at a fixed b_f (for sweeps and the baselines:
/// b_f = 0 is processor-only, b_f = b is FPGA-only).
MmPartition mm_partition_at(const SystemParams& sys, long long b,
                            long long b_f);

/// The b_f a run uses: `b_f` when it is >= 0, otherwise the mode's choice
/// (Eq. 4 for hybrid, 0 for processor-only, b for FPGA-only).
long long resolve_b_f(const SystemParams& sys, DesignMode mode, long long b,
                      long long b_f);

/// Mode-resolved cost of one b x b opMM on the max(p - 1, 1) worker nodes
/// (each computes a column share) fed by one sender node.
struct OpmmCosts {
  double worker_seconds = 0.0;  // one worker's latency per opMM
  double sender_seconds = 0.0;  // sender CPU time to distribute one opMM
  double worker_post = 0.0;     // E-share return + amortized opMS per opMM
  double fpga_share = 0.0;      // fraction of the opMM's flops on FPGAs
  double cpu_flops = 0.0;       // CPU flops per opMM (all workers combined)
  double fpga_flops = 0.0;      // FPGA flops per opMM (all workers combined)
  std::uint64_t sender_bytes = 0;  // network bytes per opMM from the sender
  std::uint64_t result_bytes = 0;  // network bytes per opMM back to owners
};

/// Cost one opMM of `part` (its block size and b_f) under `mode`, with the
/// sender's stripe distribution charged per `fanout`.
OpmmCosts opmm_costs(const SystemParams& sys, DesignMode mode,
                     SendFanout fanout, const MmPartition& part);

/// Eq. 5 solution plus the quantities that go into it.
struct LuInterleave {
  int l = 1;                 // opMM tasks served per panel operation
  double panel_op_seconds = 0.0;   // max{T_lu, T_opL, T_opU}
  double sender_per_opmm = 0.0;    // panel-node network time per opMM
  double worker_per_opmm = 0.0;    // worker latency per opMM
};

/// Solve Eq. 5 for l (>= 1). `fanout` selects how the per-opMM sender cost
/// is charged (see SendFanout).
LuInterleave solve_lu_interleave(const SystemParams& sys, long long b,
                                 const MmPartition& part, SendFanout fanout);

/// Eq. 6 solution for the Floyd–Warshall phase partition.
struct FwPartition {
  long long ops_per_phase = 0;  // n/(b*p)
  long long l1 = 0;             // whole block tasks per phase on the CPU
  long long l2 = 0;             // whole block tasks per phase on the FPGA
  double t_p = 0.0;             // CPU time per block task
  double t_f = 0.0;             // FPGA time per block task
  double t_mem = 0.0;           // DRAM->FPGA time per block task
  double t_comm = 0.0;          // network time per block exchanged
  double residual = 0.0;        // Eq. 6 LHS - RHS at the chosen split

  /// One node's latency for a phase of l1 + l2 tasks.
  double phase_seconds() const;
};

/// Solve Eq. 6 for (l1, l2) with l1 + l2 = n/(b*p). Requires b*p | n.
FwPartition solve_fw_partition(const SystemParams& sys, long long n,
                               long long b);

/// Evaluate the Floyd–Warshall split at a fixed l1 (for the Fig. 7 sweep and
/// the baselines: l1 = ops_per_phase is processor-only, l1 = 0 FPGA-only).
FwPartition fw_partition_at(const SystemParams& sys, long long n, long long b,
                            long long l1);

/// The l1 a Floyd–Warshall run uses: `l1` when it is >= 0, otherwise the
/// mode's choice (Eq. 6 for hybrid, all n/(b*p) tasks for processor-only,
/// 0 for FPGA-only). Requires b*p | n.
long long resolve_l1(const SystemParams& sys, DesignMode mode, long long n,
                     long long b, long long l1);

/// Panel-operation latencies on the processor (the Table 1 quantities).
struct PanelTimes {
  double t_lu = 0.0;   // opLU: (2/3) b^3 flops at the dgetrf rate
  double t_opl = 0.0;  // opL:  b^3 flops at the dtrsm rate
  double t_opu = 0.0;  // opU:  b^3 flops at the dtrsm rate
};
PanelTimes panel_times(const SystemParams& sys, long long b);

}  // namespace rcs::core
