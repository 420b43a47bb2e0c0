#pragma once
// Hybrid matrix multiplication — the design of Zhuo & Prasanna, "Scalable
// Hybrid Designs for Linear Algebra on Reconfigurable Computing Systems"
// (ICPADS 2006 — reference [22]), which this paper's opMM machinery extends.
// Kept as a standalone third application: it is the simplest end-to-end
// exercise of the design model (one task type, splittable, no panel chain).
//
//   * p == 1 — the single-node hybrid multiply: the node's FPGA computes
//     b_f rows of each block product while the processor computes b_p rows,
//     streaming stripes per Eq. 1.
//   * p >= 2 — the distributed form of §5.1: node 0 hosts A and B and
//     streams block stripes; the other p-1 nodes each compute a column
//     share of every block product and return it.
//
// C = A x B for n x n matrices tiled into b x b blocks: (n/b)^3 block
// multiply-accumulate tasks, numerically bit-identical to the host gemm.

#include "core/design.hpp"
#include "core/partition.hpp"
#include "core/system.hpp"
#include "linalg/matrix.hpp"
#include "sim/trace.hpp"

namespace rcs::core {

/// Configuration of one matrix-multiplication run.
struct MmConfig {
  long long n = 0;   // matrix dimension (b must divide n)
  long long b = -1;  // block size; -1 = single block (b = n)
  DesignMode mode = DesignMode::Hybrid;
  long long b_f = -1;  // -1 = solve per mode
  SendFanout fanout = SendFanout::SerialAll;
};

/// Functional run outcome.
struct MmFunctionalResult {
  linalg::Matrix c;  // the product, gathered at rank 0
  RunReport run;
  MmPartition partition;
};

/// Compute C = A x B on real data over MiniMPI (or locally when p == 1).
/// The result is bit-identical to linalg::gemm on the same operands. Empty
/// `a` and `b` make the run cost-only (functional_run.hpp): the same
/// schedule, clocks, bytes and trace, no product.
MmFunctionalResult mm_functional(const SystemParams& sys, const MmConfig& cfg,
                                 const linalg::Matrix& a,
                                 const linalg::Matrix& b,
                                 bool use_soft_fp = false,
                                 sim::TraceRecorder* trace = nullptr);

}  // namespace rcs::core
