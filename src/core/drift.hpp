#pragma once
// Model-vs-measured drift reports (the observability capstone): run a
// functional LU / Floyd-Warshall design with telemetry forced on and line up
// three views of every phase —
//
//   predicted  — the paper's performance model, as per-phase resource-seconds
//                (core::predict_*_phase_seconds),
//   simulated  — virtual-clock busy time by trace label from the run's
//                sim::TraceRecorder,
//   measured   — real wall-clock accumulated by the obs::PhaseSpan counters
//                ("lu.wall.opMM_ns", ...), summed across ranks and pool
//                workers.
//
// Predicted and simulated share the machine model, so their drift isolates
// scheduling effects the closed-form prediction ignores; measured runs on
// the host (the FPGA share is emulated), so its drift calibrates how far
// this machine is from the modeled Cray XD1 node. `experiment_runner
// --drift` prints a report; critpath_test checks the analyses it carries.

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "linalg/matrix.hpp"
#include "obs/critpath.hpp"

namespace rcs::core {

/// One phase's three-way comparison.
struct PhaseDrift {
  std::string phase;         // "opLU", "opMM", ... / "op1", "op3", ...
  double predicted_s = 0.0;  // model resource-seconds, summed over ranks
  double simulated_s = 0.0;  // virtual-clock busy time, summed over ranks
  double measured_s = 0.0;   // wall-clock, summed over threads
  /// Transfer overlap of the receives traced under this phase, read from
  /// the run's analysis (simulated seconds, summed over ranks):
  /// `overlap_total_s` is their wire time, `overlap_hidden_s` the part that
  /// elapsed behind compute before the wait. Both stay 0 for phases that
  /// receive nothing.
  double overlap_hidden_s = 0.0;
  double overlap_total_s = 0.0;

  /// |measured - predicted| / predicted (0 when nothing was predicted).
  double drift_measured() const;
  /// |simulated - predicted| / predicted.
  double drift_simulated() const;
  /// Fraction of this phase's transfer time hidden behind compute
  /// (0 when the phase receives nothing; lookahead pushes it toward 1).
  double overlap_efficiency() const;
};

/// Whole-run drift report for one design point.
struct DriftReport {
  std::string design;               // e.g. "LU/hybrid/functional"
  std::vector<PhaseDrift> phases;   // model-covered phases, stable order
  double predicted_latency_s = 0.0;   // max(T_tp, T_tf), Eq. §4.5
  double simulated_makespan_s = 0.0;  // latest virtual clock across ranks
  double measured_wall_s = 0.0;       // elapsed wall time of the run
  /// Resource -> span busy seconds / makespan, from the trace's spans.
  std::map<std::string, double> utilization;
  /// Critical-path / makespan-attribution analysis of the run's event DAG
  /// (core::analyze_run over spans + comm events).
  obs::cp::Analysis analysis;

  /// Human-readable tables: the phases, the span utilization per resource,
  /// then the analysis.
  void print(std::ostream& os) const;
};

/// Run the configured LU design on `a` with telemetry forced on and return
/// the per-phase drift. Metrics/trace enablement is restored on return;
/// counters are diffed, not reset, so surrounding telemetry survives.
DriftReport lu_drift_report(const SystemParams& sys, const LuConfig& cfg,
                            const linalg::Matrix& a);

/// Floyd-Warshall counterpart of lu_drift_report.
DriftReport fw_drift_report(const SystemParams& sys, const FwConfig& cfg,
                            const linalg::Matrix& d0);

}  // namespace rcs::core
