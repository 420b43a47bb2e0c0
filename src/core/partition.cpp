#include "core/partition.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace rcs::core {

const char* to_string(DesignMode m) {
  switch (m) {
    case DesignMode::Hybrid: return "hybrid";
    case DesignMode::ProcessorOnly: return "processor-only";
    case DesignMode::FpgaOnly: return "fpga-only";
  }
  return "?";
}

const char* to_string(SendFanout f) {
  switch (f) {
    case SendFanout::PaperSingle: return "paper-single";
    case SendFanout::SerialAll: return "serial-all";
  }
  return "?";
}

double MmPartition::stripe_period_seconds() const {
  return std::max(t_f_stripe, t_mem_stripe + t_p_stripe);
}

std::uint64_t MmPartition::sram_words(int p) const {
  RCS_DASSERT(p >= 1);
  const std::uint64_t workers = p >= 2 ? static_cast<std::uint64_t>(p - 1) : 1u;
  return static_cast<std::uint64_t>(b_f) * static_cast<std::uint64_t>(b) /
         workers;
}

namespace {

/// Fill the per-stripe timing components of a partition for a given b_f.
/// p == 1 models the single-node hybrid multiply of reference [22]: one
/// node computes the whole b-column share and pays no network time.
MmPartition evaluate_mm(const SystemParams& sys, long long b, long long b_f) {
  RCS_CHECK_MSG(sys.p >= 1, "need at least 1 node; got p = " << sys.p);
  RCS_CHECK_MSG(b > 0, "block size must be positive");
  RCS_CHECK_MSG(b_f >= 0 && b_f <= b, "b_f out of range: " << b_f);
  const auto& dev = sys.mm_fpga;
  const long long k = dev.pe_count;
  const bool single = sys.p == 1;
  const double p1 = single ? 1.0 : static_cast<double>(sys.p - 1);
  const double r_gemm = sys.gpp.sustained(node::CpuKernel::Dgemm);

  MmPartition part;
  part.b = b;
  part.b_f = b_f;
  part.b_p = b - b_f;
  part.t_f_stripe = static_cast<double>(b_f) * static_cast<double>(b) /
                    (p1 * dev.clock_hz);
  part.t_p_stripe = 2.0 * static_cast<double>(part.b_p) *
                    static_cast<double>(b) * static_cast<double>(k) /
                    (p1 * r_gemm);
  part.t_mem_stripe =
      (static_cast<double>(b_f) * static_cast<double>(k) +
       static_cast<double>(b) * static_cast<double>(k) / p1) *
      kWordBytes / dev.dram_bytes_per_s;
  part.t_comm_stripe =
      single ? 0.0
             : 2.0 * static_cast<double>(b) * static_cast<double>(k) *
                   kWordBytes / sys.network.bytes_per_s;
  part.residual = part.t_f_stripe -
                  (part.t_comm_stripe + part.t_mem_stripe + part.t_p_stripe);
  return part;
}

}  // namespace

MmPartition mm_partition_at(const SystemParams& sys, long long b,
                            long long b_f) {
  return evaluate_mm(sys, b, b_f);
}

MmPartition solve_mm_partition(const SystemParams& sys, long long b,
                               bool include_transfers) {
  RCS_CHECK_MSG(b > 0, "block size must be positive");
  const long long k = sys.mm_fpga.pe_count;

  // Eq. 4 balances T_f against T_mem + T_p per stripe (the comm term is
  // charged on the sender in this implementation). Because b_f must be a
  // multiple of k and small b can make the equation degenerate (streaming a
  // row costs more than computing it), we minimize the steady-state stripe
  // period directly over all feasible b_f; wherever Eq. 4 has an interior
  // crossing — in particular at the paper's operating points — the scan
  // lands on it (within one k-row rounding step).
  auto period = [&](long long bf) {
    const MmPartition part = evaluate_mm(sys, b, bf);
    if (!include_transfers) {
      // Naive computing-power-ratio split of reference [22].
      return std::max(part.t_f_stripe, part.t_p_stripe);
    }
    if (bf == 0) return part.t_p_stripe;  // no FPGA, no DRAM streaming
    return part.stripe_period_seconds();
  };
  long long best_bf = 0;
  double best = period(0);
  for (long long bf = k; bf <= b; bf += k) {
    const double cur = period(bf);
    if (cur < best) {
      best = cur;
      best_bf = bf;
    }
  }
  return evaluate_mm(sys, b, best_bf);
}

long long resolve_b_f(const SystemParams& sys, DesignMode mode, long long b,
                      long long b_f) {
  if (b_f >= 0) return b_f;
  switch (mode) {
    case DesignMode::Hybrid: return solve_mm_partition(sys, b).b_f;
    case DesignMode::ProcessorOnly: return 0;
    case DesignMode::FpgaOnly: return b;
  }
  return 0;
}

OpmmCosts opmm_costs(const SystemParams& sys, DesignMode mode,
                     SendFanout fanout, const MmPartition& part) {
  const long long b = part.b;
  const long long k = sys.mm_fpga.pe_count;
  const double p1 = static_cast<double>(std::max(sys.p - 1, 1));
  const double stripes = static_cast<double>(b) / static_cast<double>(k);
  const double b2 = static_cast<double>(b) * static_cast<double>(b);
  const double b3 = b2 * static_cast<double>(b);
  const double r_gemm = sys.gpp.sustained(node::CpuKernel::Dgemm);
  const double r_mem = sys.gpp.sustained(node::CpuKernel::MemBound);

  OpmmCosts c;
  switch (mode) {
    case DesignMode::Hybrid:
      c.worker_seconds = stripes * part.stripe_period_seconds();
      c.fpga_share = static_cast<double>(part.b_f) / static_cast<double>(b);
      break;
    case DesignMode::ProcessorOnly:
      // Plain dgemm of the worker's column share; no striping, no FPGA.
      c.worker_seconds = 2.0 * b3 / (p1 * r_gemm);
      break;
    case DesignMode::FpgaOnly:
      // The CPU only streams operands; the FPGA computes everything.
      c.worker_seconds =
          stripes * std::max(part.t_f_stripe, part.t_mem_stripe);
      c.fpga_share = 1.0;
      break;
  }

  const double dest = fanout == SendFanout::SerialAll
                          ? static_cast<double>(sys.p - 1)
                          : 1.0;
  c.sender_seconds = stripes * part.t_comm_stripe * dest;
  c.sender_bytes = static_cast<std::uint64_t>(
      stripes * 2.0 * static_cast<double>(b) * static_cast<double>(k) *
      kWordBytes * static_cast<double>(sys.p - 1));

  // Each worker returns its b x b/(p-1) slice of E to the block owner, then
  // the owner's opMS (b^2 subtractions) is amortized across the workers.
  c.result_bytes = static_cast<std::uint64_t>(b2 * kWordBytes);
  const double e_send = static_cast<double>(b) * (static_cast<double>(b) / p1) *
                        kWordBytes / sys.network.bytes_per_s;
  const double opms = (b2 / p1) / r_mem;
  c.worker_post = e_send + opms;

  const double total_flops = 2.0 * b3;  // one opMM
  c.fpga_flops = total_flops * c.fpga_share;
  c.cpu_flops = total_flops - c.fpga_flops;
  return c;
}

PanelTimes panel_times(const SystemParams& sys, long long b) {
  PanelTimes t;
  const double b3 = static_cast<double>(b) * static_cast<double>(b) *
                    static_cast<double>(b);
  t.t_lu = sys.gpp.seconds_for(node::CpuKernel::Dgetrf, (2.0 / 3.0) * b3);
  t.t_opl = sys.gpp.seconds_for(node::CpuKernel::Dtrsm, b3);
  t.t_opu = sys.gpp.seconds_for(node::CpuKernel::Dtrsm, b3);
  return t;
}

LuInterleave solve_lu_interleave(const SystemParams& sys, long long b,
                                 const MmPartition& part, SendFanout fanout) {
  const long long k = sys.mm_fpga.pe_count;
  const double stripes = static_cast<double>(b) / static_cast<double>(k);
  const PanelTimes pt = panel_times(sys, b);

  LuInterleave li;
  li.panel_op_seconds = std::max({pt.t_lu, pt.t_opl, pt.t_opu});
  const double dest = fanout == SendFanout::SerialAll
                          ? static_cast<double>(sys.p - 1)
                          : 1.0;
  li.sender_per_opmm = stripes * part.t_comm_stripe * dest;
  li.worker_per_opmm = stripes * part.stripe_period_seconds();
  const double denom = li.worker_per_opmm - li.sender_per_opmm;
  if (denom <= 0.0) {
    // The sender cannot keep even one opMM in flight per panel op; the
    // network dominates and interleaving deeper cannot help.
    li.l = 1;
    return li;
  }
  li.l = static_cast<int>(std::lround(li.panel_op_seconds / denom));
  li.l = std::max(li.l, 1);
  return li;
}

double FwPartition::phase_seconds() const {
  const double cpu = static_cast<double>(l1) * t_p;
  const double fpga = static_cast<double>(l2) * (t_f + t_mem);
  return std::max(cpu, fpga);
}

namespace {

FwPartition evaluate_fw(const SystemParams& sys, long long n, long long b,
                        long long l1) {
  RCS_CHECK_MSG(b > 0 && n > 0, "n and b must be positive");
  RCS_CHECK_MSG(n % (b * sys.p) == 0,
                "Floyd-Warshall layout needs b*p | n (n = " << n << ", b = "
                    << b << ", p = " << sys.p << ")");
  const auto& dev = sys.fw_fpga;
  const double b2 = static_cast<double>(b) * static_cast<double>(b);
  const double b3 = b2 * static_cast<double>(b);

  FwPartition part;
  part.ops_per_phase = n / (b * sys.p);
  RCS_CHECK_MSG(l1 >= 0 && l1 <= part.ops_per_phase,
                "l1 out of range: " << l1);
  part.l1 = l1;
  part.l2 = part.ops_per_phase - l1;
  part.t_p = 2.0 * b3 / sys.gpp.sustained(node::CpuKernel::FwBlock);
  part.t_f = 2.0 * b3 / (static_cast<double>(dev.pe_count) * dev.clock_hz);
  part.t_mem = 2.0 * b2 * kWordBytes / dev.dram_bytes_per_s;
  part.t_comm = b2 * kWordBytes / sys.network.bytes_per_s;
  part.residual = (static_cast<double>(part.l1) * part.t_p + part.t_comm +
                   static_cast<double>(part.l2) * part.t_mem) -
                  static_cast<double>(part.l2) * part.t_f;
  return part;
}

}  // namespace

FwPartition fw_partition_at(const SystemParams& sys, long long n, long long b,
                            long long l1) {
  return evaluate_fw(sys, n, b, l1);
}

FwPartition solve_fw_partition(const SystemParams& sys, long long n,
                               long long b) {
  // Eq. 6 with l2 = L - l1:
  //   l1*T_p + T_comm + (L - l1)*T_mem = (L - l1)*T_f
  //   l1 = (L*(T_f - T_mem) - T_comm) / (T_p + T_f - T_mem)
  FwPartition probe = evaluate_fw(sys, n, b, 0);
  const double L = static_cast<double>(probe.ops_per_phase);
  const double denom = probe.t_p + probe.t_f - probe.t_mem;
  long long l1 = 0;
  if (denom > 0.0) {
    const double exact = (L * (probe.t_f - probe.t_mem) - probe.t_comm) / denom;
    l1 = static_cast<long long>(std::llround(exact));
  }
  l1 = std::clamp<long long>(l1, 0, probe.ops_per_phase);
  return evaluate_fw(sys, n, b, l1);
}

long long resolve_l1(const SystemParams& sys, DesignMode mode, long long n,
                     long long b, long long l1) {
  if (l1 >= 0) return l1;
  switch (mode) {
    case DesignMode::Hybrid: return solve_fw_partition(sys, n, b).l1;
    case DesignMode::ProcessorOnly: return n / (b * sys.p);
    case DesignMode::FpgaOnly: return 0;
  }
  return 0;
}

}  // namespace rcs::core
