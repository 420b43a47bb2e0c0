#pragma once
// Blocking-vs-lookahead points for bench/ablation_lookahead (the ablation
// table).
//
// For one design point it runs the functional LU or Floyd-Warshall twice —
// once with the blocking per-iteration-barrier schedule, once with
// lookahead (NIC fan-out and NIC-returned shares, no barriers; every
// receive stays where its data is consumed) — and records:
//
//   * simulated makespans of both schedules, and the paper's predicted
//     latency T = max(T_tp, T_tf) (Eq. §4.5). The "gap closure" is how much
//     of the blocking schedule's excess over T the lookahead recovers:
//     1 - (lookahead_sim - T) / (blocking_sim - T).
//   * per-phase overlap efficiency of the lookahead run (fraction of
//     transfer time hidden behind compute), from the critical-path
//     analysis of its traced run,
//   * best-of-reps wall-clock of both schedules on this host,
//   * whether the two schedules' numerical outputs are bit-identical
//     (they must be: lookahead moves the schedule, never the data).

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <string>

#include "core/analysis.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/predict.hpp"
#include "core/system.hpp"
#include "graph/generate.hpp"
#include "linalg/generate.hpp"
#include "linalg/matrix.hpp"
#include "sim/trace.hpp"

namespace rcs::bench {

struct LookaheadPoint {
  std::string design;  // "LU" or "FW"
  long long n = 0;
  long long b = 0;
  int p = 0;
  double predicted_latency_s = 0.0;  // T = max(T_tp, T_tf)
  double blocking_sim_s = 0.0;
  double lookahead_sim_s = 0.0;
  double blocking_wall_s = 0.0;
  double lookahead_wall_s = 0.0;
  /// Lookahead run, by phase that receives: hidden over wire seconds.
  std::map<std::string, double> overlap_efficiency;
  bool bit_identical = false;

  double sim_speedup() const {
    return lookahead_sim_s > 0.0 ? blocking_sim_s / lookahead_sim_s : 0.0;
  }
  /// Fraction of the blocking schedule's gap over the predicted latency
  /// that the lookahead closes (0 when the blocking run already meets T).
  double gap_closure() const {
    const double gap_blocking = blocking_sim_s - predicted_latency_s;
    if (gap_blocking <= 0.0) return 0.0;
    const double gap_lookahead = lookahead_sim_s - predicted_latency_s;
    return 1.0 - gap_lookahead / gap_blocking;
  }
};

namespace detail {

inline double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Hidden over wire seconds of every phase whose receives moved data.
inline std::map<std::string, double> overlap_efficiency(
    const sim::TraceRecorder& rec, int p, double makespan) {
  std::map<std::string, double> out;
  for (const auto& pa : core::analyze_run(rec, p, makespan).per_phase) {
    if (pa.transfer_wire_s > 0.0) {
      out[pa.label] = pa.transfer_hidden_s / pa.transfer_wire_s;
    }
  }
  return out;
}

/// Best (minimum) single-rep wall time over `reps` runs.
inline double best_wall(const std::function<void()>& body, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    body();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

}  // namespace detail

inline LookaheadPoint lu_lookahead_point(long long n, long long b, int p,
                                         int wall_reps = 2) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  core::LuConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;
  const linalg::Matrix a =
      linalg::diagonally_dominant(static_cast<std::size_t>(n), 42);

  LookaheadPoint pt;
  pt.design = "LU";
  pt.n = n;
  pt.b = b;
  pt.p = p;
  pt.predicted_latency_s = core::predict_lu(sys, cfg).latency_seconds();

  cfg.lookahead = false;
  core::LuFunctionalResult blocking = core::lu_functional(sys, cfg, a);
  pt.blocking_sim_s = blocking.run.seconds;
  pt.blocking_wall_s = detail::best_wall(
      [&] { core::lu_functional(sys, cfg, a); }, wall_reps);

  cfg.lookahead = true;
  sim::TraceRecorder rec(true);
  core::LuFunctionalResult ahead =
      core::lu_functional(sys, cfg, a, false, &rec);
  pt.lookahead_sim_s = ahead.run.seconds;
  pt.lookahead_wall_s = detail::best_wall(
      [&] { core::lu_functional(sys, cfg, a); }, wall_reps);
  pt.overlap_efficiency = detail::overlap_efficiency(rec, p, ahead.run.seconds);
  pt.bit_identical =
      linalg::bit_equal(blocking.factored.view(), ahead.factored.view());
  return pt;
}

inline LookaheadPoint fw_lookahead_point(long long n, long long b, int p,
                                         int wall_reps = 2) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  core::FwConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;
  const linalg::Matrix d0 =
      graph::random_digraph(static_cast<std::size_t>(n), 7, 0.4);

  LookaheadPoint pt;
  pt.design = "FW";
  pt.n = n;
  pt.b = b;
  pt.p = p;
  pt.predicted_latency_s = core::predict_fw(sys, cfg).latency_seconds();

  cfg.lookahead = false;
  core::FwFunctionalResult blocking = core::fw_functional(sys, cfg, d0);
  pt.blocking_sim_s = blocking.run.seconds;
  pt.blocking_wall_s = detail::best_wall(
      [&] { core::fw_functional(sys, cfg, d0); }, wall_reps);

  cfg.lookahead = true;
  sim::TraceRecorder rec(true);
  core::FwFunctionalResult ahead =
      core::fw_functional(sys, cfg, d0, false, &rec);
  pt.lookahead_sim_s = ahead.run.seconds;
  pt.lookahead_wall_s = detail::best_wall(
      [&] { core::fw_functional(sys, cfg, d0); }, wall_reps);
  pt.overlap_efficiency = detail::overlap_efficiency(rec, p, ahead.run.seconds);
  pt.bit_identical =
      linalg::bit_equal(blocking.distances.view(), ahead.distances.view());
  return pt;
}

}  // namespace rcs::bench
