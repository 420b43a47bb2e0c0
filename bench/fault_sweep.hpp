#pragma once
// Fault-injection points for bench/fault_sweep, whose table
// golden_fault_sweep pins: run a functional design point fault-free, then
// again under a seeded FaultPlan with tolerance on, check the outputs stayed
// bit-identical, and report the recovery overhead plus the repair-time
// (MTTR) distribution.

#include <cstdint>
#include <string>

#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/system.hpp"
#include "graph/generate.hpp"
#include "linalg/generate.hpp"
#include "linalg/matrix.hpp"
#include "sim/faults.hpp"

namespace rcs::bench {

/// One design point's fault-free vs faulty comparison.
struct FaultPoint {
  std::string design;  // "LU" / "FW"
  long long n = 0;
  long long b = 0;
  int p = 0;
  std::uint64_t seed = 0;
  double clean_sim_s = 0.0;    // fault-free simulated makespan
  double faulty_sim_s = 0.0;   // makespan under the plan, tolerance on
  bool bit_identical = false;  // faulty outputs == fault-free outputs
  sim::FaultStats stats;

  /// Simulated-makespan overhead of the faults plus their recovery.
  double overhead() const {
    return clean_sim_s > 0.0 ? (faulty_sim_s - clean_sim_s) / clean_sim_s
                             : 0.0;
  }
};

/// The sweep's stock plan: a couple of slowdown windows and degraded links
/// over the run plus a handful of FPGA bit-flips aimed at early call
/// ordinals (so they actually land at bench scales).
inline sim::FaultPlan make_bench_plan(int ranks, std::uint64_t seed,
                                      double horizon_s) {
  sim::FaultSpec spec;
  spec.ranks = ranks;
  spec.seed = seed;
  spec.horizon_s = horizon_s;
  spec.slowdown_windows = 2;
  spec.link_faults = 2;
  spec.link_extra_latency_max_s = horizon_s / 64.0;
  spec.link_jitter_max_s = horizon_s / 256.0;
  spec.bitflips = 4;
  spec.bitflip_max_call = 12;
  return sim::FaultPlan::generate(spec);
}

inline FaultPoint lu_fault_point(long long n, long long b, int p,
                                 std::uint64_t seed) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  const linalg::Matrix a =
      linalg::diagonally_dominant(static_cast<std::size_t>(n), 42);
  core::LuConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;
  const core::LuFunctionalResult clean = core::lu_functional(sys, cfg, a);
  const sim::FaultPlan plan = make_bench_plan(p, seed, clean.run.seconds);
  cfg.faults = &plan;
  cfg.fault_tolerance = true;
  // Generous deadline: only a genuinely degraded peer triggers a local
  // reissue (which is bit-identical either way).
  cfg.straggler_timeout_s = clean.run.seconds;
  const core::LuFunctionalResult faulty = core::lu_functional(sys, cfg, a);

  FaultPoint pt;
  pt.design = "LU";
  pt.n = n;
  pt.b = b;
  pt.p = p;
  pt.seed = seed;
  pt.clean_sim_s = clean.run.seconds;
  pt.faulty_sim_s = faulty.run.seconds;
  pt.bit_identical =
      linalg::bit_equal(clean.factored.view(), faulty.factored.view());
  pt.stats = faulty.faults;
  return pt;
}

inline FaultPoint fw_fault_point(long long n, long long b, int p,
                                 std::uint64_t seed) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  const linalg::Matrix d0 =
      graph::random_digraph(static_cast<std::size_t>(n), 7, 0.4);
  core::FwConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;
  const core::FwFunctionalResult clean = core::fw_functional(sys, cfg, d0);
  const sim::FaultPlan plan = make_bench_plan(p, seed, clean.run.seconds);
  cfg.faults = &plan;
  cfg.fault_tolerance = true;
  const core::FwFunctionalResult faulty = core::fw_functional(sys, cfg, d0);

  FaultPoint pt;
  pt.design = "FW";
  pt.n = n;
  pt.b = b;
  pt.p = p;
  pt.seed = seed;
  pt.clean_sim_s = clean.run.seconds;
  pt.faulty_sim_s = faulty.run.seconds;
  pt.bit_identical =
      linalg::bit_equal(clean.distances.view(), faulty.distances.view());
  pt.stats = faulty.faults;
  return pt;
}

}  // namespace rcs::bench
