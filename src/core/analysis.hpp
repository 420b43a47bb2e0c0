#pragma once
// The critical-path analyzer over a merged per-rank sim::TraceRecorder (node
// spans + MiniMPI comm events). It reads the recorder in place: no copy of
// the trace, one attribution pass and one flat per-rank index for the walk.
// obs::cp holds the result types and stays dependency-free, so the
// resource-name and label conventions of the functional planes are
// interpreted here:
//
//   "node<r>.cpu"       -> CPU compute (FaultRecovery for repair labels)
//   "node<r>.dram"      -> visible transfer (CPU-driven operand streaming)
//   "node<r>.fpga_wait" -> exposed FPGA time (CPU blocked on the pipeline)
//   "node<r>.fpga"      -> concurrent device busy time (resource-seconds
//                          only; the device overlaps the CPU timeline)
//   other resources     -> not attributed
//   CommEvents          -> visible-transfer intervals + wire intervals (a
//                          zero-length send is only a wire)

#include "obs/critpath.hpp"
#include "sim/trace.hpp"

namespace rcs::core {

/// Analyze a run from its merged recorder. `ranks` is the world size,
/// `makespan` the run's simulated finish (activity recorded past it — there
/// should be none — is clipped). Events may be in any order; per rank, the
/// attributed intervals must not overlap. Returns an empty Analysis
/// (invariants trivially true) when makespan <= 0 or ranks <= 0.
obs::cp::Analysis analyze_run(const sim::TraceRecorder& rec, int ranks,
                              double makespan);

}  // namespace rcs::core
