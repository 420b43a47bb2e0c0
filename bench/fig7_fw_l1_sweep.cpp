// Figure 7 reproduction: latency of one Floyd–Warshall iteration versus l1
// (block tasks per phase kept on the processor), n = 18432, b = 256, p = 6.
// The paper's curve: latency falls as l1 drops from 12 to the Eq. 6 optimum
// (l1 = 2), rises again at l1 = 1 (FPGA overloaded), and FPGA-only (l1 = 0)
// beats several mid-range hybrid points because the FPGA is ~10x the
// processor for this kernel. Each point is a cost-only run of iteration 0.

#include <iostream>

#include "common/table.hpp"
#include "core/fw_functional.hpp"

using namespace rcs;

int main() {
  const auto sys = core::SystemParams::cray_xd1();
  core::FwConfig cfg;
  cfg.n = 18432;
  cfg.b = 256;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.max_iterations = 1;

  const auto solved = core::solve_fw_partition(sys, cfg.n, cfg.b);
  std::cout << "Figure 7 — latency of one FW iteration vs l1 "
            << "(n = 18432, b = 256, p = 6, L = " << solved.ops_per_phase
            << ")\nEq. 6 solution: l1 = " << solved.l1
            << ", l2 = " << solved.l2 << " (paper: l1 = 2, l2 = 10)\n\n";

  Table t;
  t.set_header({"l1", "l2", "iteration latency (s)", "CPU side/phase (s)",
                "FPGA side/phase (s)", "note"});
  std::vector<double> lat(static_cast<std::size_t>(solved.ops_per_phase + 1));
  for (long long l1 = solved.ops_per_phase; l1 >= 0; --l1) {
    core::FwConfig c = cfg;
    c.l1 = l1;
    const auto rep = core::fw_functional(sys, c, {});
    lat[static_cast<std::size_t>(l1)] = rep.run.seconds;
    const auto& part = rep.partition;
    std::string note;
    if (l1 == solved.ops_per_phase) note = "processor-only split";
    if (l1 == 0) note = "fpga-only split";
    if (l1 == solved.l1) note = "Eq. 6 optimum";
    t.add_row({Table::num(l1), Table::num(part.l2),
               Table::num(rep.run.seconds, 5),
               Table::num(static_cast<double>(part.l1) * part.t_p, 4),
               Table::num(static_cast<double>(part.l2) *
                              (part.t_f + part.t_mem),
                          4),
               note});
  }
  t.print(std::cout);

  const auto opt = static_cast<std::size_t>(solved.l1);
  const bool min_at_opt = lat[opt] <= lat[opt + 1] && lat[opt] <= lat[1];
  const bool one_overloads = lat[1] > lat[opt];
  const bool fpga_only_beats_midrange = lat[0] < lat[4];
  std::cout << "\nShape: minimum at the Eq. 6 split "
            << (min_at_opt ? "[ok]" : "[MISMATCH]")
            << ", l1 = 1 overloads the FPGA "
            << (one_overloads ? "[ok]" : "[MISMATCH]")
            << ", FPGA-only beats mid-range hybrids "
            << (fpga_only_beats_midrange ? "[ok]" : "[MISMATCH]") << "\n";
  return 0;
}
