#include "core/predict.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rcs::core {

Prediction predict_lu(const SystemParams& sys, const LuConfig& cfg) {
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0 && cfg.n % cfg.b == 0,
                "LU prediction requires b | n");
  const MmPartition part = mm_partition_at(
      sys, cfg.b, resolve_b_f(sys, cfg.mode, cfg.b, cfg.b_f));
  const PanelTimes pt = panel_times(sys, cfg.b);
  const long long nb = cfg.n / cfg.b;
  const long long k = sys.mm_fpga.pe_count;
  const double stripes = static_cast<double>(cfg.b) / static_cast<double>(k);
  const double b2 = static_cast<double>(cfg.b) * static_cast<double>(cfg.b);
  const double b3 = b2 * static_cast<double>(cfg.b);
  const double p1 = static_cast<double>(sys.p - 1);
  const double r_gemm = sys.gpp.sustained(node::CpuKernel::Dgemm);

  Prediction pr;
  for (long long t = 0; t < nb; ++t) {
    const double m = static_cast<double>(nb - 1 - t);
    const double panel_cpu = pt.t_lu + m * (pt.t_opl + pt.t_opu);
    double worker_cpu = 0.0;
    double fpga = 0.0;
    switch (cfg.mode) {
      case DesignMode::Hybrid:
        worker_cpu = m * m * stripes * part.t_p_stripe;
        fpga = m * m * stripes * part.t_f_stripe;
        break;
      case DesignMode::ProcessorOnly:
        worker_cpu = m * m * 2.0 * b3 / (p1 * r_gemm);
        break;
      case DesignMode::FpgaOnly:
        fpga = m * m * stripes * part.t_f_stripe;
        break;
    }
    // The panel node and the workers run concurrently; per iteration the
    // processor side's contribution is the slower of the two roles.
    pr.t_tp += std::max(panel_cpu, worker_cpu);
    pr.t_tf += fpga;
    pr.total_flops += (2.0 / 3.0) * b3 + m * 2.0 * b3 +
                      m * m * (2.0 * b3 + b2);
  }
  return pr;
}

std::map<std::string, double> predict_lu_phase_seconds(const SystemParams& sys,
                                                       const LuConfig& cfg) {
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0 && cfg.n % cfg.b == 0,
                "LU prediction requires b | n");
  const MmPartition part = mm_partition_at(
      sys, cfg.b, resolve_b_f(sys, cfg.mode, cfg.b, cfg.b_f));
  const PanelTimes pt = panel_times(sys, cfg.b);
  const long long nb = cfg.n / cfg.b;
  const double stripes = static_cast<double>(cfg.b) /
                         static_cast<double>(sys.mm_fpga.pe_count);
  const double p1 = static_cast<double>(sys.p - 1);
  const double b2 = static_cast<double>(cfg.b) * static_cast<double>(cfg.b);

  // s1 = sum of m, s2 = sum of m^2 over iterations (m = nb - 1 - t): the
  // opL/opU and opMM task counts of the whole factorization.
  double s1 = 0.0, s2 = 0.0;
  for (long long t = 0; t < nb; ++t) {
    const double m = static_cast<double>(nb - 1 - t);
    s1 += m;
    s2 += m * m;
  }

  std::map<std::string, double> out;
  out["opLU"] = static_cast<double>(nb) * pt.t_lu;
  out["opL"] = s1 * pt.t_opl;
  out["opU"] = s1 * pt.t_opu;
  // One opMM is (b/k) stripes on each of the p-1 workers; t_p_stripe /
  // t_f_stripe are per-worker per-stripe times, so resource-seconds multiply
  // by p-1. At b_f = 0 (processor-only) the stripe formula collapses to the
  // 2 b^3 / R_gemm flop count.
  out["opMM.cpu"] = s2 * p1 * stripes * part.t_p_stripe;
  out["opMM.fpga"] = s2 * p1 * stripes * part.t_f_stripe;
  // opMS streams b^2 elements per task at the memory-bound rate.
  out["opMS"] = s2 * b2 / sys.gpp.sustained(node::CpuKernel::MemBound);
  return out;
}

Prediction predict_fw(const SystemParams& sys, const FwConfig& cfg) {
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0 && cfg.n % (cfg.b * sys.p) == 0,
                "FW prediction requires b*p | n");
  const FwPartition part = fw_partition_at(
      sys, cfg.n, cfg.b, resolve_l1(sys, cfg.mode, cfg.n, cfg.b, cfg.l1));
  const long long nb = cfg.n / cfg.b;
  const double b3 = static_cast<double>(cfg.b) * static_cast<double>(cfg.b) *
                    static_cast<double>(cfg.b);

  Prediction pr;
  // Per iteration: nb waves of l1 CPU tasks + l2 FPGA tasks per node, plus
  // op1 on the owner's processor (negligible but on the CPU path).
  const double waves = static_cast<double>(nb);
  pr.t_tp = waves * waves *
                (static_cast<double>(part.l1) * part.t_p) +
            waves * (cfg.mode == DesignMode::FpgaOnly ? part.t_f : part.t_p);
  pr.t_tf = waves * waves * (static_cast<double>(part.l2) * part.t_f);
  pr.total_flops = waves * waves * waves * 2.0 * b3;  // = 2 n^3
  return pr;
}

std::map<std::string, double> predict_fw_phase_seconds(const SystemParams& sys,
                                                       const FwConfig& cfg) {
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0 && cfg.n % (cfg.b * sys.p) == 0,
                "FW prediction requires b*p | n");
  const FwPartition part = fw_partition_at(
      sys, cfg.n, cfg.b, resolve_l1(sys, cfg.mode, cfg.n, cfg.b, cfg.l1));
  const double nb = static_cast<double>(cfg.n / cfg.b);
  // Block tasks are scheduled whole: each wave runs l1 on the CPU and l2 on
  // the FPGA irrespective of the op21/op22/op3 label, so every labelled
  // task's expected cost is the split average.
  const double avg_task =
      (static_cast<double>(part.l1) * part.t_p +
       static_cast<double>(part.l2) * part.t_f) /
      static_cast<double>(part.ops_per_phase);

  std::map<std::string, double> out;
  out["op1"] = nb * (cfg.mode == DesignMode::FpgaOnly ? part.t_f : part.t_p);
  out["op21"] = nb * (nb - 1.0) * avg_task;
  out["op22"] = nb * (nb - 1.0) * avg_task;
  out["op3"] = nb * (nb - 1.0) * (nb - 1.0) * avg_task;
  return out;
}

}  // namespace rcs::core
