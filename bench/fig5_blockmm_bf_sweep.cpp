// Figure 5 reproduction: latency of one b x b block matrix multiplication
// versus b_f (the FPGA's row share), b = 3000, p = 6. The paper's curve
// falls from b_f = 0 (processor-only) to a minimum near its operating point
// (b_f = 1280), then rises as the FPGA overloads; b_f = b (FPGA-only) is
// slower than b_f = 0. Each point is one cost-only block multiply at
// n = b: the stripes out to the p - 1 workers, their hybrid shares, and the
// E shares back.

#include <iostream>

#include "common/table.hpp"
#include "core/mm.hpp"
#include "core/partition.hpp"
#include "core/system.hpp"

using namespace rcs;

namespace {

double opmm_latency(const core::SystemParams& sys, long long b,
                    long long b_f) {
  core::MmConfig cfg;
  cfg.n = b;
  cfg.b = b;
  cfg.b_f = b_f;
  return core::mm_functional(sys, cfg, {}, {}).run.seconds;
}

}  // namespace

int main() {
  const auto sys = core::SystemParams::cray_xd1();
  const long long b = 3000;
  const auto solved = core::solve_mm_partition(sys, b);

  std::cout << "Figure 5 — latency of one " << b << "x" << b
            << " block MM vs b_f (p = " << sys.p << ")\n"
            << "Eq. 4 solution: b_f = " << solved.b_f
            << " (paper operates at b_f = 1280; its Eq. 4 text gives 1280 "
               "with b_p = 1720)\n\n";

  Table t;
  t.set_header({"b_f", "b_p", "latency (s)", "T_f/stripe (ms)",
                "T_mem+T_p/stripe (ms)", "note"});
  double best = 1e300;
  long long best_bf = 0;
  for (long long bf = 0; bf <= b; bf += 200) {
    const long long bf_k = (bf / 8) * 8;  // multiple of k
    const double lat = opmm_latency(sys, b, bf_k);
    const auto part = core::mm_partition_at(sys, b, bf_k);
    std::string note;
    if (bf_k == 0) note = "processor-only";
    if (bf_k >= b - 7) note = "fpga-only";
    if (lat < best) {
      best = lat;
      best_bf = bf_k;
    }
    t.add_row({Table::num((long long)bf_k), Table::num((long long)(b - bf_k)),
               Table::num(lat, 4), Table::num(part.t_f_stripe * 1e3, 3),
               Table::num((part.t_mem_stripe + part.t_p_stripe) * 1e3, 3),
               note});
  }
  t.print(std::cout);

  const double at0 = opmm_latency(sys, b, 0);
  const double atb = opmm_latency(sys, b, b);
  std::cout << "\nSweep minimum at b_f = " << best_bf << " (" << best
            << " s); paper minimum at 1280.\n"
            << "Shape: min < b_f=0 (" << Table::num(at0, 4) << " s) < b_f=b ("
            << Table::num(atb, 4) << " s) — "
            << (best < at0 && at0 < atb ? "REPRODUCED" : "MISMATCH") << "\n";
  return 0;
}
