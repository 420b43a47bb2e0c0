// Large-p scaling sweep: predicted vs simulated makespan of the LU and
// Floyd-Warshall designs across p in {4, 16, 64, 256, 1024}, under the
// Eq. 4/5 (LU) and Eq. 6 (FW) partition rules. The p >= 256 worlds run as
// fiber-scheduled MiniMPI ranks multiplexed over a few OS threads in one
// process — the design point the rank scheduler exists for. FW's
// functional plane grows ~p^3 (n = b*p), so it is simulated through p=64
// and predicted beyond; LU is simulated everywhere.
//
// Usage: scaling_sweep [--quick]
//   (--quick caps simulation at p=64 for LU / p=16 for FW; the CI smoke.)

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "scaling_sweep.hpp"

using namespace rcs;

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  // Warm the pool before any world so rank fibers land on it.
  common::ThreadPool::global();

  const std::vector<int> ps = {4, 16, 64, 256, 1024};
  const int lu_sim_max_p = quick ? 64 : 1024;
  const int fw_sim_max_p = quick ? 16 : 64;
  const auto points =
      bench::scaling_sweep(ps, 128, 16, 8, lu_sim_max_p, fw_sim_max_p);

  std::cout << "Scaling sweep — predicted vs simulated makespan "
               "(LU n=128 b=16; FW b=8, n=8p)\n\n";
  std::printf("%-3s %5s %6s %-14s %12s %12s %8s %10s %9s %8s %9s\n", "dsn",
              "p", "n", "partition", "predicted_s", "simulated_s", "sim/pred",
              "net_bytes", "trace_ev", "wall_s", "analyze_s");
  bool invariants_ok = true;
  for (const auto& pt : points) {
    char part[32];
    if (pt.design == "LU") {
      std::snprintf(part, sizeof(part), "b_f=%lld l=%d", pt.b_f, pt.l);
    } else {
      std::snprintf(part, sizeof(part), "l1=%lld l2=%lld", pt.l1, pt.l2);
    }
    if (pt.simulated) {
      std::printf("%-3s %5d %6lld %-14s %12.6g %12.6g %8.3f %10llu %9llu "
                  "%8.2f %9.3f\n",
                  pt.design.c_str(), pt.p, pt.n, part, pt.predicted_s,
                  pt.simulated_s, pt.sim_over_predicted(),
                  static_cast<unsigned long long>(pt.bytes_on_network),
                  static_cast<unsigned long long>(pt.trace_events),
                  pt.wall_s, pt.analyze_s);
      invariants_ok = invariants_ok && pt.analysis.invariants_hold();
    } else {
      std::printf("%-3s %5d %6lld %-14s %12.6g %12s\n", pt.design.c_str(),
                  pt.p, pt.n, part, pt.predicted_s, "(predicted)");
    }
  }

  std::cout << "\nCritical-path invariants on every simulated point: "
            << (invariants_ok ? "[ok]" : "[VIOLATED]") << "\n";
  return invariants_ok ? 0 : 1;
}
