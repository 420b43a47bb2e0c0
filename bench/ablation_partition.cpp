// Ablation bench for the design choices DESIGN.md calls out:
//   1. Eq. 4's transfer terms vs the naive computing-power-ratio split of
//      reference [22] (does modelling T_comm/T_mem matter?)
//   2. The Eq. 5 interleave vs no interleaving (l = 0).
//   3. Send fan-out conventions (paper single-destination vs CPU-serialized).
//   4. Coordination latency sensitivity (§4.4 claims it is negligible).
// Paper-scale rows are cost-only runs of the executed schedules.

#include <iostream>

#include "common/table.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "graph/generate.hpp"

using namespace rcs;

int main() {
  const auto sys = core::SystemParams::cray_xd1();

  std::cout << "Ablations of the design model's choices (Cray XD1, p = 6)\n\n";

  // ---- 1. Transfer-aware partition (Eq. 4) vs naive ratio split [22].
  {
    const auto full = core::solve_mm_partition(sys, 3000, true);
    const auto naive = core::solve_mm_partition(sys, 3000, false);
    core::LuConfig cfg;
    cfg.n = 30000;
    cfg.b = 3000;
    cfg.mode = core::DesignMode::Hybrid;
    core::LuConfig cfg_naive = cfg;
    cfg_naive.b_f = naive.b_f;
    const auto rep_full = core::lu_functional(sys, cfg, {});
    const auto rep_naive = core::lu_functional(sys, cfg_naive, {});
    Table t("1. LU partition: Eq. 4 (with transfers) vs naive ratio [22]");
    t.set_header({"partition", "b_f", "latency (s)", "GFLOPS"});
    t.add_row({"Eq. 4", Table::num(full.b_f),
               Table::num(rep_full.run.seconds, 5),
               Table::num(rep_full.run.gflops(), 4)});
    t.add_row({"naive ratio", Table::num(naive.b_f),
               Table::num(rep_naive.run.seconds, 5),
               Table::num(rep_naive.run.gflops(), 4)});
    t.print(std::cout);
    std::cout << "\n";
  }

  // ---- 2. Eq. 5 interleaving vs none.
  {
    core::LuConfig cfg;
    cfg.n = 30000;
    cfg.b = 3000;
    cfg.mode = core::DesignMode::Hybrid;
    core::LuConfig none = cfg;
    none.l = 0;
    const auto with = core::lu_functional(sys, cfg, {});
    const auto without = core::lu_functional(sys, none, {});
    Table t("2. LU stripe distribution: Eq. 5 interleave vs none (l = 0)");
    t.set_header({"interleave", "l", "latency (s)", "GFLOPS"});
    t.add_row({"Eq. 5", Table::num((long long)with.l),
               Table::num(with.run.seconds, 5),
               Table::num(with.run.gflops(), 4)});
    t.add_row({"none", "0", Table::num(without.run.seconds, 5),
               Table::num(without.run.gflops(), 4)});
    t.print(std::cout);
    std::cout << "\n";
  }

  // ---- 3. Fan-out convention.
  {
    core::LuConfig cfg;
    cfg.n = 30000;
    cfg.b = 3000;
    cfg.mode = core::DesignMode::Hybrid;
    core::LuConfig paper = cfg;
    paper.fanout = core::SendFanout::PaperSingle;
    const auto serial = core::lu_functional(sys, cfg, {});
    const auto single = core::lu_functional(sys, paper, {});
    Table t("3. LU stripe fan-out: CPU-serialized sends vs paper's single "
            "T_comm per stripe");
    t.set_header({"fan-out", "l chosen", "latency (s)", "GFLOPS"});
    t.add_row({"serial-all (strict §4.3)",
               Table::num((long long)serial.l),
               Table::num(serial.run.seconds, 5),
               Table::num(serial.run.gflops(), 4)});
    t.add_row({"paper-single (Eq. 5)",
               Table::num((long long)single.l),
               Table::num(single.run.seconds, 5),
               Table::num(single.run.gflops(), 4)});
    t.print(std::cout);
    std::cout << "\n";
  }

  // ---- 3b. Panel lookahead (what the paper's atomic ACML routines cost).
  {
    core::LuConfig cfg;
    cfg.n = 30000;
    cfg.b = 3000;
    cfg.mode = core::DesignMode::Hybrid;
    core::LuConfig ahead = cfg;
    ahead.lookahead = true;
    const auto barriered = core::lu_functional(sys, cfg, {});
    const auto look = core::lu_functional(sys, ahead, {});
    Table t("3b. LU iteration pipelining: barriered (paper) vs lookahead");
    t.set_header({"schedule", "latency (s)", "GFLOPS"});
    t.add_row({"barriered (atomic ACML, §6.2)",
               Table::num(barriered.run.seconds, 5),
               Table::num(barriered.run.gflops(), 4)});
    t.add_row({"lookahead (NIC fan-out, no barrier)",
               Table::num(look.run.seconds, 5),
               Table::num(look.run.gflops(), 4)});
    t.print(std::cout);
    std::cout << "Lookahead recovers "
              << Table::num(100.0 * (look.run.gflops() /
                                         barriered.run.gflops() -
                                     1.0),
                            3)
              << "% — what the paper's atomic routines (§6.2) cost the "
                 "schedule.\n\n";
  }

  // ---- 3d. DRAM contention (functional plane): the paper assumes the
  // FPGA's SRAM staging keeps it off the CPU's memory bus; sweep the
  // contention factor to see what sharing the bus would cost the hybrid FW.
  {
    // b = 32, L = 7 per phase: Eq. 6 gives the CPU one task per wave, so
    // its compute genuinely overlaps the FPGA's streaming.
    Table t("3d. FW hybrid under memory-bus contention (functional, n = 448, "
            "b = 32, p = 2, l1 = 1)");
    t.set_header({"contention factor", "latency (sim)", "vs none"});
    double base = 0.0;
    const auto d0 = rcs::graph::random_digraph(448, 3, 0.4);
    for (double gamma : {0.0, 0.2, 0.5, 0.8}) {
      core::SystemParams s = sys.with_nodes(2);
      s.dram_contention_factor = gamma;
      core::FwConfig cfg;
      cfg.n = 448;
      cfg.b = 32;
      cfg.mode = core::DesignMode::Hybrid;
      const auto rep = core::fw_functional(s, cfg, d0);
      if (gamma == 0.0) base = rep.run.seconds;
      t.add_row({Table::num(gamma, 2), Table::seconds(rep.run.seconds),
                 "+" + Table::num(100.0 * (rep.run.seconds / base - 1.0), 3) +
                     "%"});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // ---- 4. Coordination latency sensitivity (§4.4: "negligible").
  {
    Table t("4. FW coordination-latency sensitivity (per start/notify check)");
    t.set_header({"latency per check", "FW iteration latency (s)", "delta"});
    double base = 0.0;
    for (double lat : {0.0, 1e-6, 1e-5, 1e-4, 1e-3}) {
      core::SystemParams s = sys;
      s.coordination_latency_s = lat;
      core::FwConfig cfg;
      cfg.n = 18432;
      cfg.b = 256;
      cfg.mode = core::DesignMode::Hybrid;
      cfg.max_iterations = 1;
      const double iter0 = core::fw_functional(s, cfg, {}).run.seconds;
      if (lat == 0.0) base = iter0;
      t.add_row({Table::seconds(lat), Table::num(iter0, 6),
                 "+" + Table::num(100.0 * (iter0 / base - 1.0), 3) + "%"});
    }
    t.print(std::cout);
    std::cout << "\nCoordination below ~10 us per check is indeed negligible "
                 "(paper §4.4). [ok]\n";
  }
  return 0;
}
