#pragma once
// Large-p scaling points for bench/scaling_sweep (the table, which exits
// non-zero when a simulated point's critical-path invariants fail).
//
// For each world size p it reports the paper's predicted latency
// T = max(T_tp, T_tf) under the Eq. 4/5 (LU) or Eq. 6 (FW) partition rules,
// and — where the functional plane is tractable — the simulated makespan of
// a real run over MiniMPI, its critical-path analysis, and the wall-clock
// cost of simulating it. The large-p points are what the fiber rank
// scheduler exists for: a p=1024 world is 1024 rank contexts multiplexed
// over the pool's handful of OS threads in one process.
//
// Design-point shapes:
//   * LU keeps (n, b) fixed and grows p: each opMM's b columns are split
//     across the p-1 workers (zero-width shares are legal), so the message
//     count grows ~linearly in p and every p in the sweep is simulable.
//   * FW requires b*p | n, so the sweep grows n = b*p with p: the block
//     count n/b equals p and the total block-task work grows ~p^3.
//     Simulation is tractable through p=64 on a workstation; beyond that
//     only the Eq. 6 prediction is reported (simulated = false).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/partition.hpp"
#include "core/predict.hpp"
#include "core/system.hpp"
#include "graph/generate.hpp"
#include "linalg/generate.hpp"
#include "linalg/matrix.hpp"
#include "obs/critpath.hpp"
#include "sim/trace.hpp"

namespace rcs::bench {

struct ScalingPoint {
  std::string design;  // "LU" or "FW"
  int p = 0;
  long long n = 0;
  long long b = 0;
  // Partition rule in effect: Eq. 4/5 for LU, Eq. 6 for FW.
  long long b_f = -1;           // LU: FPGA rows of the C stripe
  int l = 0;                    // LU: opMM interleave depth
  long long l1 = -1, l2 = -1;   // FW: CPU/FPGA block tasks per phase
  double predicted_s = 0.0;     // T = max(T_tp, T_tf)
  bool simulated = false;       // functional run performed?
  double simulated_s = 0.0;     // makespan of the functional run
  std::uint64_t bytes_on_network = 0;
  std::uint64_t trace_events = 0;  // recorded spans + comm events
  double wall_s = 0.0;             // host seconds to simulate the run
  double analyze_s = 0.0;          // host seconds of its analyze_run
  obs::cp::Analysis analysis;      // valid when simulated

  /// Simulated-over-predicted ratio (1.0 = the run meets the model's bound;
  /// 0 when not simulated).
  double sim_over_predicted() const {
    return simulated && predicted_s > 0.0 ? simulated_s / predicted_s : 0.0;
  }
};

namespace detail {

inline double wall_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

}  // namespace detail

/// One LU scaling point at world size p (fixed n, b). `simulate` runs the
/// functional plane (always feasible for LU — message count is ~linear in
/// p); false records the prediction only.
inline ScalingPoint lu_scaling_point(int p, long long n, long long b,
                                     bool simulate) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  core::LuConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;

  ScalingPoint pt;
  pt.design = "LU";
  pt.p = p;
  pt.n = n;
  pt.b = b;
  pt.predicted_s = core::predict_lu(sys, cfg).latency_seconds();
  const core::MmPartition part = core::solve_mm_partition(sys, b);
  pt.b_f = part.b_f;
  pt.l = core::solve_lu_interleave(sys, b, part, cfg.fanout).l;
  if (!simulate) return pt;

  const linalg::Matrix a =
      linalg::diagonally_dominant(static_cast<std::size_t>(n), 42);
  sim::TraceRecorder rec(true);
  const double t0 = detail::wall_now();
  const core::LuFunctionalResult res =
      core::lu_functional(sys, cfg, a, false, &rec);
  pt.wall_s = detail::wall_now() - t0;
  pt.simulated = true;
  pt.simulated_s = res.run.seconds;
  pt.bytes_on_network = res.run.bytes_on_network;
  pt.trace_events = rec.event_count();
  pt.b_f = res.partition.b_f;  // the split the run actually used
  pt.l = res.l;
  const double t1 = detail::wall_now();
  pt.analysis = core::analyze_run(rec, p, res.run.seconds);
  pt.analyze_s = detail::wall_now() - t1;
  return pt;
}

/// One FW scaling point at world size p (fixed b, n = b*p so the block
/// count equals p). `simulate` runs the functional plane — tractable up to
/// roughly p=64 (block-task work grows ~p^3); false records the Eq. 6
/// prediction only.
inline ScalingPoint fw_scaling_point(int p, long long b, bool simulate) {
  const long long n = b * p;
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  core::FwConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;

  ScalingPoint pt;
  pt.design = "FW";
  pt.p = p;
  pt.n = n;
  pt.b = b;
  pt.predicted_s = core::predict_fw(sys, cfg).latency_seconds();
  const core::FwPartition part = core::solve_fw_partition(sys, n, b);
  pt.l1 = part.l1;
  pt.l2 = part.l2;
  if (!simulate) return pt;

  const linalg::Matrix d0 =
      graph::random_digraph(static_cast<std::size_t>(n), 7, 0.4);
  sim::TraceRecorder rec(true);
  const double t0 = detail::wall_now();
  const core::FwFunctionalResult res =
      core::fw_functional(sys, cfg, d0, false, &rec);
  pt.wall_s = detail::wall_now() - t0;
  pt.simulated = true;
  pt.simulated_s = res.run.seconds;
  pt.bytes_on_network = res.run.bytes_on_network;
  pt.trace_events = rec.event_count();
  pt.l1 = res.partition.l1;
  pt.l2 = res.partition.l2;
  const double t1 = detail::wall_now();
  pt.analysis = core::analyze_run(rec, p, res.run.seconds);
  pt.analyze_s = detail::wall_now() - t1;
  return pt;
}

/// The full sweep: LU at every p (simulated through lu_sim_max_p), FW at
/// every p (simulated through fw_sim_max_p, predicted beyond).
inline std::vector<ScalingPoint> scaling_sweep(const std::vector<int>& ps,
                                               long long lu_n, long long lu_b,
                                               long long fw_b,
                                               int lu_sim_max_p,
                                               int fw_sim_max_p) {
  std::vector<ScalingPoint> points;
  for (int p : ps) {
    points.push_back(lu_scaling_point(p, lu_n, lu_b, p <= lu_sim_max_p));
  }
  for (int p : ps) {
    points.push_back(fw_scaling_point(p, fw_b, p <= fw_sim_max_p));
  }
  return points;
}

}  // namespace rcs::bench
