#pragma once
// The design model as a performance predictor (§4.5): after partitioning,
// total processor time T_tp and FPGA time T_tf are accumulated along the
// task dependency structure, assuming every data transfer and network
// communication overlaps the FPGA's computation. The predicted latency is
// max(T_tp, T_tf). Section 6.2 reports the implementations reach >= 86%
// (LU) and >= 96% (FW) of this prediction; the fig9 bench reproduces that
// comparison against cost-only runs of the executed schedules.

#include <map>
#include <string>

#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"

namespace rcs::core {

/// Model prediction for one run.
struct Prediction {
  double t_tp = 0.0;          // total processor-side time (critical path)
  double t_tf = 0.0;          // total FPGA-side time
  double total_flops = 0.0;   // semantic flops of the application
  double latency_seconds() const { return t_tp > t_tf ? t_tp : t_tf; }
  double gflops() const {
    const double t = latency_seconds();
    return t > 0.0 ? total_flops / t / 1e9 : 0.0;
  }
};

/// Predict the configured LU design (same resolution rules as lu_functional:
/// b_f / l of -1 are solved from the model).
Prediction predict_lu(const SystemParams& sys, const LuConfig& cfg);

/// Predict the configured Floyd–Warshall design.
Prediction predict_fw(const SystemParams& sys, const FwConfig& cfg);

/// Per-phase predicted *resource-seconds*: total busy time each phase
/// consumes summed over every rank's CPU and FPGA (not the critical path,
/// which overlaps roles). These are directly comparable to the simulated
/// busy-by-label sums of a traced functional run and to the wall-clock
/// phase counters ("lu.wall.<phase>_ns") of the telemetry layer — the three
/// columns of the drift report.
///
/// LU keys: "opLU", "opL", "opU", "opMM.cpu", "opMM.fpga", "opMS".
std::map<std::string, double> predict_lu_phase_seconds(const SystemParams& sys,
                                                       const LuConfig& cfg);

/// FW keys: "op1", "op21", "op22", "op3". Block tasks are whole-task
/// scheduled l1:l2 across sides regardless of label, so op21/op22/op3 are
/// charged the split-averaged task cost (l1*t_p + l2*t_f) / (l1 + l2).
std::map<std::string, double> predict_fw_phase_seconds(const SystemParams& sys,
                                                       const FwConfig& cfg);

}  // namespace rcs::core
