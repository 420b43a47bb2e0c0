#include "core/lu_analytic.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rcs::core {

LuAnalyticReport lu_analytic(const SystemParams& sys, const LuConfig& cfg) {
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0 && cfg.n % cfg.b == 0,
                "LU requires b | n (n = " << cfg.n << ", b = " << cfg.b << ")");
  RCS_CHECK_MSG(sys.p >= 2, "the distributed LU design needs p >= 2");

  LuAnalyticReport rep;
  rep.partition = mm_partition_at(
      sys, cfg.b, resolve_b_f(sys, cfg.mode, cfg.b, cfg.b_f));
  rep.interleave =
      solve_lu_interleave(sys, cfg.b, rep.partition, cfg.fanout);
  int l = cfg.l >= 0 ? cfg.l : rep.interleave.l;
  rep.interleave.l = l;

  const OpmmCosts costs =
      opmm_costs(sys, cfg.mode, cfg.fanout, rep.partition);
  const PanelTimes pt = panel_times(sys, cfg.b);
  const long long nb = cfg.n / cfg.b;
  const long long iterations =
      cfg.max_iterations >= 0 ? std::min<long long>(cfg.max_iterations, nb)
                              : nb;
  const double b2 = static_cast<double>(cfg.b) * static_cast<double>(cfg.b);
  const double b3 = b2 * static_cast<double>(cfg.b);

  rep.run.design = std::string("LU/") + to_string(cfg.mode);
  double now = 0.0;
  double panel_free = 0.0;   // lookahead mode: panel-node availability
  double worker_free = 0.0;  // lookahead mode: worker availability
  double diag_ready = 0.0;   // lookahead: when the next diagonal block lands

  for (long long t = 0; t < iterations; ++t) {
    const long long m = nb - 1 - t;  // trailing block rows/columns
    const double iter_start =
        cfg.lookahead ? std::max(panel_free, diag_ready) : now;
    double panel = iter_start;
    double worker = cfg.lookahead ? std::max(worker_free, iter_start) : now;
    bool first_opmm_recorded = false;

    // opLU on the panel node.
    panel += pt.t_lu;
    rep.run.cpu_flops += (2.0 / 3.0) * b3;

    // Panel pipeline: after each opL/opU pair for index i, opMMs with
    // max(u, v) == i become ready (2i - 1 of them); the panel node serves
    // up to l ready opMMs after each panel operation.
    long long ready = 0;
    long long served = 0;
    const long long total_opmm = m * m;
    auto serve = [&](long long count) {
      for (long long s = 0; s < count && served < ready; ++s) {
        panel += costs.sender_seconds;  // distribute stripes
        const double start = std::max(worker, panel);
        worker = start + costs.worker_seconds + costs.worker_post;
        if (!first_opmm_recorded) {
          // opMM #1 is (t+1, t+1): the next panel's diagonal block.
          diag_ready = worker;
          first_opmm_recorded = true;
        }
        ++served;
      }
    };
    for (long long i = 1; i <= m; ++i) {
      panel += pt.t_opl;
      if (l > 0) serve(l);
      panel += pt.t_opu;
      ready += 2 * i - 1;  // running total: i^2 opMMs ready after pair i
      if (l > 0) serve(l);
      rep.run.cpu_flops += 2.0 * b3;  // opL + opU
    }
    RCS_CHECK(ready == total_opmm);
    serve(total_opmm - served);  // drain whatever remains

    rep.run.cpu_flops += static_cast<double>(total_opmm) * costs.cpu_flops;
    rep.run.fpga_flops += static_cast<double>(total_opmm) * costs.fpga_flops;
    rep.run.cpu_flops += static_cast<double>(total_opmm) * b2;  // opMS
    rep.run.bytes_on_network += static_cast<std::uint64_t>(total_opmm) *
                                (costs.sender_bytes + costs.result_bytes);
    // Two coordination events (start + done) per stripe per worker node.
    if (cfg.mode != DesignMode::ProcessorOnly) {
      rep.run.coordination_events +=
          static_cast<std::uint64_t>(total_opmm) *
          static_cast<std::uint64_t>(cfg.b / sys.mm_fpga.pe_count) * 2u *
          static_cast<std::uint64_t>(sys.p - 1);
    }

    if (cfg.lookahead) {
      // No barrier: the panel node frees up when its own work ends, the
      // workers keep draining; iteration t+1 gates only on the updated
      // diagonal block (recorded by the first opMM above).
      panel_free = panel;
      worker_free = worker;
      now = std::max(now, std::max(panel, worker));
      if (m == 0) diag_ready = panel;  // nothing to wait for afterwards
    } else {
      // Iteration barrier: the next panel depends on opMS-updated blocks.
      now = std::max(panel, worker);
    }
    rep.iteration_seconds.push_back(std::max(panel, worker) - iter_start);
    rep.panel_busy_seconds += panel - iter_start;
    rep.worker_busy_seconds += worker - iter_start;
  }

  rep.run.seconds = now;
  rep.run.total_flops = rep.run.cpu_flops + rep.run.fpga_flops;
  rep.run.cpu_busy_seconds = rep.panel_busy_seconds +
                             rep.worker_busy_seconds *
                                 static_cast<double>(sys.p - 1);
  rep.run.fpga_busy_seconds =
      cfg.mode == DesignMode::ProcessorOnly
          ? 0.0
          : rep.run.fpga_flops / sys.mm_fpga.peak_flops();
  return rep;
}

double lu_single_opmm_latency(const SystemParams& sys, long long b,
                              long long b_f, SendFanout fanout) {
  const OpmmCosts costs = opmm_costs(
      sys, b_f == 0 ? DesignMode::ProcessorOnly : DesignMode::Hybrid, fanout,
      mm_partition_at(sys, b, b_f));
  // One opMM with a cold pipeline: the workers start once the stripes are on
  // the wire, then compute.
  return costs.sender_seconds + costs.worker_seconds + costs.worker_post;
}

}  // namespace rcs::core
