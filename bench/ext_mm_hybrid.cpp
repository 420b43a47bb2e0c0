// Extension bench (reference [22], the paper's companion design): hybrid
// matrix multiplication on one XD1 node and across a chassis.
//
//  * single node: sustained GFLOPS vs b_f, showing the Eq. 1 balance between
//    the 3.9 GFLOPS Opteron and the 2.08 GFLOPS PE array;
//  * chassis: GFLOPS vs node count for a 30000^2 multiply.
//
// Every point is a cost-only run.

#include <iostream>

#include "common/table.hpp"
#include "core/mm.hpp"

using namespace rcs;

int main() {
  std::cout << "Extension — hybrid matrix multiplication (reference [22])\n\n";

  // ---- single node: sweep the FPGA row share.
  {
    auto sys = core::SystemParams::cray_xd1().with_nodes(1);
    const long long b = 3000;
    Table t("One XD1 node, C = A x B at n = b = 3000, vs b_f");
    t.set_header({"b_f", "GFLOPS", "note"});
    const long long opt = core::solve_mm_partition(sys, b).b_f;
    for (long long bf : {0LL, 500LL, 1000LL, 1500LL, opt, 2000LL, 2500LL,
                         3000LL}) {
      const long long bfk = (bf / 8) * 8;
      core::MmConfig cfg;
      cfg.n = b;
      cfg.b = b;
      cfg.mode = bfk == 0 ? core::DesignMode::ProcessorOnly
                          : core::DesignMode::Hybrid;
      cfg.b_f = bfk;
      const auto rep = core::mm_functional(sys, cfg, {}, {});
      std::string note;
      if (bfk == 0) note = "processor-only (3.9 GFLOPS dgemm)";
      if (bfk == 3000) note = "fpga-only (2.08 GFLOPS array)";
      if (bfk == opt) note = "Eq. 4 balance";
      t.add_row({Table::num(bfk), Table::num(rep.run.gflops(), 4), note});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // ---- chassis scaling.
  {
    Table t("Chassis scaling, hybrid C = A x B, n = 30000, b = 3000");
    t.set_header({"p", "GFLOPS", "network GB moved"});
    for (int p : {2, 3, 4, 6}) {
      auto sys = core::SystemParams::cray_xd1().with_nodes(p);
      core::MmConfig cfg;
      cfg.n = 30000;
      cfg.b = 3000;
      cfg.mode = core::DesignMode::Hybrid;
      const auto rep = core::mm_functional(sys, cfg, {}, {});
      t.add_row({Table::num((long long)p), Table::num(rep.run.gflops(), 4),
                 Table::num(static_cast<double>(rep.run.bytes_on_network) /
                                1e9,
                            4)});
    }
    t.print(std::cout);
  }
  std::cout << "\nShape: the hybrid single-node multiply approaches the sum "
               "of the two engines' rates;\nthe distributed form scales "
               "with worker count until the root's stripe feed saturates.\n";
  return 0;
}
