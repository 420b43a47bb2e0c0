#include "core/drift.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <utility>

#include "core/analysis.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/predict.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/trace.hpp"

namespace rcs::core {

namespace {

/// Current values of the "<cat>.wall.<phase>_ns" counters (creating any
/// that have never been touched, at value 0).
std::map<std::string, std::uint64_t> wall_counters(
    const std::string& cat, const std::vector<std::string>& phases) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& ph : phases) {
    out[ph] =
        obs::Registry::global().counter(cat + ".wall." + ph + "_ns").value();
  }
  return out;
}

PhaseDrift make_phase(const std::string& name, double predicted,
                      const std::map<std::string, sim::SimTime>& sim_busy,
                      std::uint64_t before_ns, std::uint64_t after_ns) {
  PhaseDrift d;
  d.phase = name;
  d.predicted_s = predicted;
  const auto it = sim_busy.find(name);
  d.simulated_s = it == sim_busy.end() ? 0.0 : it->second;
  d.measured_s = static_cast<double>(after_ns - before_ns) * 1e-9;
  return d;
}

/// Copy the analysis's per-phase hidden and wire seconds onto the matching
/// PhaseDrift rows (phases that receive nothing keep their zeros).
void attach_overlap(std::vector<PhaseDrift>& phases,
                    const obs::cp::Analysis& an) {
  for (PhaseDrift& ph : phases) {
    for (const obs::cp::PhaseAttribution& pa : an.per_phase) {
      if (pa.label != ph.phase) continue;
      ph.overlap_hidden_s = pa.transfer_hidden_s;
      ph.overlap_total_s = pa.transfer_wire_s;
    }
  }
}

}  // namespace

double PhaseDrift::drift_measured() const {
  return predicted_s > 0.0 ? std::abs(measured_s - predicted_s) / predicted_s
                           : 0.0;
}

double PhaseDrift::drift_simulated() const {
  return predicted_s > 0.0 ? std::abs(simulated_s - predicted_s) / predicted_s
                           : 0.0;
}

double PhaseDrift::overlap_efficiency() const {
  return overlap_total_s > 0.0 ? overlap_hidden_s / overlap_total_s : 0.0;
}

DriftReport lu_drift_report(const SystemParams& sys, const LuConfig& cfg,
                            const linalg::Matrix& a) {
  const std::vector<std::string> names{"opLU", "opL", "opU", "opMM", "opMS"};
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const auto before = wall_counters("lu", names);

  sim::TraceRecorder rec(true);
  const std::int64_t w0 = obs::trace_now_ns();
  const LuFunctionalResult res = lu_functional(sys, cfg, a, false, &rec);
  const double wall =
      static_cast<double>(obs::trace_now_ns() - w0) * 1e-9;
  const auto after = wall_counters("lu", names);
  obs::set_metrics_enabled(metrics_were_on);

  std::map<std::string, double> pred = predict_lu_phase_seconds(sys, cfg);
  // The functional plane's "opMM" phase covers both sides of the split.
  pred["opMM"] = pred["opMM.cpu"] + pred["opMM.fpga"];
  const auto sim_busy = rec.busy_by_label();

  DriftReport rep;
  rep.design = res.run.design;
  rep.predicted_latency_s = predict_lu(sys, cfg).latency_seconds();
  rep.simulated_makespan_s = res.run.seconds;
  rep.measured_wall_s = wall;
  for (const auto& name : names) {
    rep.phases.push_back(make_phase(name, pred[name], sim_busy,
                                    before.at(name), after.at(name)));
  }
  if (res.run.seconds > 0.0) rep.utilization = rec.utilization(res.run.seconds);
  rep.analysis = analyze_run(rec, sys.p, res.run.seconds);
  attach_overlap(rep.phases, rep.analysis);
  return rep;
}

DriftReport fw_drift_report(const SystemParams& sys, const FwConfig& cfg,
                            const linalg::Matrix& d0) {
  const std::vector<std::string> names{"op1", "op21", "op22", "op3"};
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const auto before = wall_counters("fw", names);

  sim::TraceRecorder rec(true);
  const std::int64_t w0 = obs::trace_now_ns();
  const FwFunctionalResult res = fw_functional(sys, cfg, d0, false, &rec);
  const double wall =
      static_cast<double>(obs::trace_now_ns() - w0) * 1e-9;
  const auto after = wall_counters("fw", names);
  obs::set_metrics_enabled(metrics_were_on);

  const std::map<std::string, double> pred = predict_fw_phase_seconds(sys, cfg);
  const auto sim_busy = rec.busy_by_label();

  DriftReport rep;
  rep.design = res.run.design;
  rep.predicted_latency_s = predict_fw(sys, cfg).latency_seconds();
  rep.simulated_makespan_s = res.run.seconds;
  rep.measured_wall_s = wall;
  for (const auto& name : names) {
    rep.phases.push_back(make_phase(name, pred.at(name), sim_busy,
                                    before.at(name), after.at(name)));
  }
  if (res.run.seconds > 0.0) rep.utilization = rec.utilization(res.run.seconds);
  rep.analysis = analyze_run(rec, sys.p, res.run.seconds);
  attach_overlap(rep.phases, rep.analysis);
  return rep;
}

void DriftReport::print(std::ostream& os) const {
  os << design << ": predicted latency " << predicted_latency_s
     << " s, simulated makespan " << simulated_makespan_s
     << " s, measured wall " << measured_wall_s << " s\n";
  os << "  " << std::left << std::setw(8) << "phase" << std::right
     << std::setw(14) << "predicted_s" << std::setw(14) << "simulated_s"
     << std::setw(14) << "measured_s" << std::setw(12) << "sim_drift"
     << std::setw(12) << "meas_drift" << std::setw(10) << "overlap" << '\n';
  for (const PhaseDrift& ph : phases) {
    os << "  " << std::left << std::setw(8) << ph.phase << std::right
       << std::setw(14) << std::setprecision(4) << ph.predicted_s
       << std::setw(14) << ph.simulated_s << std::setw(14) << ph.measured_s
       << std::setw(11) << std::setprecision(2) << 100.0 * ph.drift_simulated()
       << '%' << std::setw(11) << 100.0 * ph.drift_measured() << '%';
    if (ph.overlap_total_s > 0.0) {
      os << std::setw(9) << 100.0 * ph.overlap_efficiency() << '%';
    } else {
      os << std::setw(10) << "-";
    }
    os << '\n';
  }
  os << "  " << std::left << std::setw(20) << "resource" << std::right
     << std::setw(14) << "busy/makespan" << '\n';
  for (const auto& [resource, u] : utilization) {
    os << "  " << std::left << std::setw(20) << resource << std::right
       << std::setw(13) << std::setprecision(3) << 100.0 * u << "%\n";
  }
  analysis.print(os);
}

}  // namespace rcs::core
