// Example: using the design model for performance prediction (§4.5) —
// capacity planning across reconfigurable computing systems without touching
// hardware.
//
// For each machine preset (Cray XD1, Cray XT3 + DRC, SGI RASC) and a
// what-if sweep over node counts and FPGA clocks, the model partitions the
// workload and predicts latency/GFLOPS for both applications, and a
// cost-only run of the LU schedule gives the simulated GFLOPS. This is the
// workflow the paper proposes for application developers sizing a system.
//
//   ./capacity_planning [--lu_n 30000] [--lu_b 3000]

#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/rcs.hpp"

using namespace rcs;

int main(int argc, char** argv) {
  Cli cli("Capacity planning with the design model (Section 4.5)");
  cli.add_int("lu_n", 30000, "LU matrix dimension");
  cli.add_int("lu_b", 3000, "LU block size (lu_n / lu_b <= 512)");
  if (!cli.parse(argc, argv)) return 0;

  const long long lu_n = cli.get_int("lu_n");
  const long long lu_b = cli.get_int("lu_b");

  const core::SystemParams presets[] = {
      core::SystemParams::cray_xd1(),
      core::SystemParams::cray_xt3_drc(),
      core::SystemParams::sgi_rasc(),
  };

  Table t("Predicted hybrid performance per machine (design model, §4.5)");
  t.set_header({"machine", "p", "LU b_f (Eq.4)", "LU GFLOPS",
                "FW l1:l2 (Eq.6)", "FW GFLOPS"});
  for (const auto& sys : presets) {
    core::LuConfig lu;
    lu.n = lu_n;
    lu.b = lu_b;
    lu.mode = core::DesignMode::Hybrid;
    const auto lu_part = core::solve_mm_partition(sys, lu.b);
    const auto lu_pred = core::predict_lu(sys, lu);

    core::FwConfig fw;
    fw.b = 256;
    fw.n = 256LL * sys.p * 60;  // keep b*p | n across presets
    fw.mode = core::DesignMode::Hybrid;
    const auto fw_part = core::solve_fw_partition(sys, fw.n, fw.b);
    const auto fw_pred = core::predict_fw(sys, fw);

    t.add_row({sys.name, Table::num((long long)sys.p),
               Table::num(lu_part.b_f),
               Table::num(lu_pred.gflops(), 4),
               Table::num(fw_part.l1) + ":" + Table::num(fw_part.l2),
               Table::num(fw_pred.gflops(), 4)});
  }
  t.print(std::cout);

  // What-if: scale the XD1 chassis count.
  Table w("\nWhat-if: scaling Cray XD1 node count (hybrid LU)");
  w.set_header({"p", "b_f", "predicted GFLOPS", "simulated GFLOPS",
                "worker efficiency"});
  double per_worker_base = 0.0;
  for (int p : {2, 4, 6, 12, 24}) {
    const auto sys = core::SystemParams::cray_xd1().with_nodes(p);
    core::LuConfig lu;
    lu.n = lu_n;
    lu.b = lu_b;
    lu.mode = core::DesignMode::Hybrid;
    const auto pred = core::predict_lu(sys, lu);
    const auto rep = core::lu_functional(sys, lu, {});
    // Efficiency per worker node (p-1 nodes run opMM; one runs the panel).
    if (p == 2) per_worker_base = rep.run.gflops();
    w.add_row({Table::num((long long)p),
               Table::num(core::solve_mm_partition(sys, lu.b).b_f),
               Table::num(pred.gflops(), 4), Table::num(rep.run.gflops(), 4),
               Table::num(100.0 * rep.run.gflops() /
                              ((p - 1) * per_worker_base),
                          3) +
                   "%"});
  }
  w.print(std::cout);

  // What-if: a faster FPGA design clock on XD1 (e.g. a better-placed design).
  Table f("\nWhat-if: FPGA design clock on XD1 (hybrid LU, Eq. 4 re-solved)");
  f.set_header({"F_f (MHz)", "b_f", "simulated GFLOPS"});
  for (double mhz : {100.0, 130.0, 160.0, 200.0, 260.0}) {
    auto sys = core::SystemParams::cray_xd1();
    sys.mm_fpga.clock_hz = mhz * 1e6;
    sys.mm_fpga.dram_bytes_per_s = mhz * 1e6 * 8;  // word per cycle
    core::LuConfig lu;
    lu.n = lu_n;
    lu.b = lu_b;
    lu.mode = core::DesignMode::Hybrid;
    const auto rep = core::lu_functional(sys, lu, {});
    f.add_row({Table::num(mhz, 4), Table::num(rep.partition.b_f),
               Table::num(rep.run.gflops(), 4)});
  }
  f.print(std::cout);

  std::cout << "\nReading: Eq. 4 shifts rows to the FPGA as its clock rises;\n"
               "scaling nodes keeps efficiency high until the serial panel\n"
               "path (opLU/opL/opU on one node) dominates — Amdahl at work.\n";
  return 0;
}
