// Figure 6 reproduction: latency of the 0th iteration of LU decomposition
// versus the interleave depth l (n = 30000, b = 3000, p = 6). The paper's
// curve falls from l = 0 to a minimum at l = 3 and stays nearly flat
// through l = 5. Each point is a cost-only run of iteration 0.

#include <iostream>

#include "common/table.hpp"
#include "core/lu_functional.hpp"

using namespace rcs;

int main() {
  const auto sys = core::SystemParams::cray_xd1();
  core::LuConfig cfg;
  cfg.n = 30000;
  cfg.b = 3000;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.max_iterations = 1;

  const auto part = core::solve_mm_partition(sys, cfg.b);
  const auto li = core::solve_lu_interleave(sys, cfg.b, part,
                                            core::SendFanout::SerialAll);
  std::cout << "Figure 6 — latency of the 0th LU iteration vs l "
            << "(n = 30000, b = 3000, p = 6)\n"
            << "Eq. 5 solution: l = " << li.l
            << " (paper sets l = 3; its Eq. 5 with single-destination "
               "T_comm gives 3.3)\n\n";

  // Two conventions for the stripe distribution (EXPERIMENTS.md): serial-all
  // (strict §4.3: the panel CPU serializes one send per worker) and
  // paper-single (Eq. 5's one T_comm per stripe: the panel hands its sends
  // to the NIC, which serializes them).
  Table t;
  t.set_header({"l", "latency, serial-all (s)", "latency, paper-single (s)",
                "vs best (serial)"});
  double best = 1e300;
  std::vector<double> lat, lat_single;
  for (int l = 0; l <= 8; ++l) {
    core::LuConfig c = cfg;
    c.l = l;
    lat.push_back(core::lu_functional(sys, c, {}).run.seconds);
    c.fanout = core::SendFanout::PaperSingle;
    lat_single.push_back(core::lu_functional(sys, c, {}).run.seconds);
    best = std::min(best, lat.back());
  }
  for (int l = 0; l <= 8; ++l) {
    t.add_row({Table::num((long long)l), Table::num(lat[l], 5),
               Table::num(lat_single[l], 5),
               "+" + Table::num(100.0 * (lat[l] / best - 1.0), 3) + "%"});
  }
  t.print(std::cout);

  const bool falls = lat[0] > lat[1] && lat[1] >= lat[li.l];
  const bool flat_after =
      lat[std::min(8, li.l + 2)] < lat[li.l] * 1.10;
  std::cout << "\nShape: latency falls from l=0 to the Eq. 5 solution, then "
            << "stays within ~10%: "
            << (falls && flat_after ? "REPRODUCED" : "MISMATCH") << "\n";
  return 0;
}
