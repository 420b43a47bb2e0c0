// Figure 9 reproduction (plus the Section 6.2 derived claims): sustained
// GFLOPS of the hybrid designs against the Processor-only and FPGA-only
// baselines at the paper's operating points —
//   LU: n = 30000, b = 3000  (paper: 20 / ~15.4 / ~10 GFLOPS)
//   FW: n = 92160, b = 256   (paper: 6.6 / ~1.14 / ~5.7 GFLOPS)
// and the model-prediction comparison of §4.5/§6.2 (>= 86% for LU, ~96%
// for FW). Every design point is a cost-only run.

#include <iostream>

#include "common/table.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/predict.hpp"

using namespace rcs;
using core::DesignMode;

int main() {
  const auto sys = core::SystemParams::cray_xd1();

  // ----- LU -----
  core::LuConfig lu;
  lu.n = 30000;
  lu.b = 3000;
  auto lu_run = [&](DesignMode m) {
    core::LuConfig c = lu;
    c.mode = m;
    return core::lu_functional(sys, c, {});
  };
  const auto lu_h = lu_run(DesignMode::Hybrid);
  const auto lu_c = lu_run(DesignMode::ProcessorOnly);
  const auto lu_f = lu_run(DesignMode::FpgaOnly);
  lu.mode = DesignMode::Hybrid;
  const auto lu_pred = core::predict_lu(sys, lu);

  // ----- FW -----
  core::FwConfig fw;
  fw.n = 92160;
  fw.b = 256;
  auto fw_run = [&](DesignMode m) {
    core::FwConfig c = fw;
    c.mode = m;
    return core::fw_functional(sys, c, {});
  };
  const auto fw_h = fw_run(DesignMode::Hybrid);
  const auto fw_c = fw_run(DesignMode::ProcessorOnly);
  const auto fw_f = fw_run(DesignMode::FpgaOnly);
  fw.mode = DesignMode::Hybrid;
  const auto fw_pred = core::predict_fw(sys, fw);

  std::cout << "Figure 9 — performance comparison with baseline designs "
            << "(Cray XD1, p = 6)\n\n";

  Table t;
  t.set_header({"Application", "Design", "GFLOPS", "paper GFLOPS"});
  t.add_row({"LU (n=30000,b=3000)", "Hybrid",
             Table::num(lu_h.run.gflops(), 4), "20"});
  t.add_row({"", "Processor-only", Table::num(lu_c.run.gflops(), 4),
             "~15.4 (20/1.3)"});
  t.add_row({"", "FPGA-only", Table::num(lu_f.run.gflops(), 4), "~10 (20/2)"});
  t.add_row({"FW (n=92160,b=256)", "Hybrid", Table::num(fw_h.run.gflops(), 4),
             "6.6"});
  t.add_row({"", "Processor-only", Table::num(fw_c.run.gflops(), 4),
             "~1.14 (6.6/5.8)"});
  t.add_row({"", "FPGA-only", Table::num(fw_f.run.gflops(), 4),
             "~5.7 (6.6/1.15)"});
  t.print(std::cout);

  Table s("\nDerived Section 6.2 claims");
  s.set_header({"Claim", "paper", "reproduced"});
  auto ratio = [](double a, double b2) { return Table::num(a / b2, 3); };
  s.add_row({"LU speedup vs processor-only", "1.3x",
             ratio(lu_c.run.seconds, lu_h.run.seconds) + "x"});
  s.add_row({"LU speedup vs FPGA-only", "2x",
             ratio(lu_f.run.seconds, lu_h.run.seconds) + "x"});
  s.add_row({"LU fraction of baselines' sum", "~80%",
             Table::num(100.0 * lu_h.run.gflops() /
                            (lu_c.run.gflops() + lu_f.run.gflops()),
                        3) +
                 "%"});
  s.add_row({"LU fraction of model prediction", "~86%",
             Table::num(100.0 * lu_h.run.gflops() / lu_pred.gflops(), 3) +
                 "%"});
  s.add_row({"FW speedup vs processor-only", "5.8x",
             ratio(fw_c.run.seconds, fw_h.run.seconds) + "x"});
  s.add_row({"FW speedup vs FPGA-only", "1.15x",
             ratio(fw_f.run.seconds, fw_h.run.seconds) + "x"});
  s.add_row({"FW fraction of baselines' sum", ">95%",
             Table::num(100.0 * fw_h.run.gflops() /
                            (fw_c.run.gflops() + fw_f.run.gflops()),
                        3) +
                 "%"});
  s.add_row({"FW fraction of model prediction", "~96%",
             Table::num(100.0 * fw_h.run.gflops() / fw_pred.gflops(), 3) +
                 "%"});
  s.print(std::cout);

  const bool lu_order = lu_h.run.gflops() > lu_c.run.gflops() &&
                        lu_c.run.gflops() > lu_f.run.gflops();
  const bool fw_order = fw_h.run.gflops() > fw_f.run.gflops() &&
                        fw_f.run.gflops() > fw_c.run.gflops();
  std::cout << "\nShape: LU ordering hybrid > CPU-only > FPGA-only "
            << (lu_order ? "[ok]" : "[MISMATCH]")
            << "; FW ordering hybrid > FPGA-only > CPU-only "
            << (fw_order ? "[ok]" : "[MISMATCH]") << "\n";
  return 0;
}
