// Extension bench: hybrid Cholesky factorization on the XD1 model — the
// third dense factorization of the hybrid-linear-algebra family ([22]).
// Shows the design-model contrast with LU: half the trailing work per panel
// operation means the serial panel chain weighs more, so both the absolute
// GFLOPS and the hybrid's margin over the baselines shrink. Every point is a
// cost-only run.

#include <iostream>

#include "common/table.hpp"
#include "core/cholesky.hpp"
#include "core/lu_functional.hpp"

using namespace rcs;
using core::DesignMode;

int main() {
  const auto sys = core::SystemParams::cray_xd1();
  std::cout << "Extension — hybrid Cholesky (A = L L^T), Cray XD1, p = 6\n\n";

  // Design variants at the LU paper scale.
  {
    core::CholConfig cfg;
    cfg.n = 30000;
    cfg.b = 3000;
    Table t("Design variants (n = 30000, b = 3000); useful rate counts "
            "n^3/3 flops");
    t.set_header({"design", "latency (s)", "useful GFLOPS",
                  "executed GFLOPS"});
    const double useful_flops = 30000.0 * 30000.0 * 30000.0 / 3.0;
    for (auto mode : {DesignMode::Hybrid, DesignMode::ProcessorOnly,
                      DesignMode::FpgaOnly}) {
      core::CholConfig c = cfg;
      c.mode = mode;
      const auto rep = core::cholesky_functional(sys, c, {});
      t.add_row({core::to_string(mode), Table::num(rep.run.seconds, 5),
                 Table::num(useful_flops / rep.run.seconds / 1e9, 4),
                 Table::num(rep.run.gflops(), 4)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // Scaling with block count, side by side with LU.
  {
    Table t("Hybrid useful GFLOPS vs n/b (b = 3000): Cholesky vs LU");
    t.set_header({"n/b", "Cholesky", "LU"});
    for (long long nb : {2, 4, 6, 8, 10}) {
      core::CholConfig chol;
      chol.n = 3000 * nb;
      chol.b = 3000;
      chol.mode = DesignMode::Hybrid;
      const auto crep = core::cholesky_functional(sys, chol, {});
      const double cn = static_cast<double>(chol.n);
      core::LuConfig lu;
      lu.n = chol.n;
      lu.b = 3000;
      lu.mode = DesignMode::Hybrid;
      const auto lrep = core::lu_functional(sys, lu, {});
      t.add_row({Table::num(nb),
                 Table::num(cn * cn * cn / 3.0 / crep.run.seconds / 1e9, 4),
                 Table::num(2.0 * cn * cn * cn / 3.0 / lrep.run.seconds / 1e9,
                            4)});
    }
    t.print(std::cout);
  }
  std::cout << "\nShape: both factorizations gain with n/b; Cholesky trails "
               "LU because its\ntrailing update (the only hybrid task) is "
               "half the size relative to the panel chain.\n";
  return 0;
}
