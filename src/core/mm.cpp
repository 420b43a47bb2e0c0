#include "core/mm.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "core/functional_run.hpp"
#include "fpga/matmul_array.hpp"
#include "linalg/blas.hpp"
#include "net/matrix_channel.hpp"
#include "node/compute_node.hpp"

namespace rcs::core {

namespace {
using linalg::Matrix;
}  // namespace

MmAnalyticReport mm_analytic(const SystemParams& sys, const MmConfig& cfg) {
  const long long b = cfg.b < 0 ? cfg.n : cfg.b;
  RCS_CHECK_MSG(cfg.n > 0 && b > 0 && cfg.n % b == 0, "mm requires b | n");
  const long long nb = cfg.n / b;

  MmAnalyticReport rep;
  rep.partition =
      mm_partition_at(sys, b, resolve_b_f(sys, cfg.mode, b, cfg.b_f));
  // One block multiply-accumulate step is one opMM on the max(p - 1, 1)
  // workers.
  const OpmmCosts costs =
      opmm_costs(sys, cfg.mode, cfg.fanout, rep.partition);

  const double b2 = static_cast<double>(b) * static_cast<double>(b);
  const double step_w = costs.worker_seconds;
  const long long steps = nb * nb * nb;  // block multiply-accumulate tasks
  const double n3 = static_cast<double>(cfg.n) * static_cast<double>(cfg.n) *
                    static_cast<double>(cfg.n);

  rep.run.design = std::string("MM/") + to_string(cfg.mode);
  if (sys.p == 1) {
    // Single-node hybrid multiply [22]: the node streams through all steps.
    rep.run.seconds = static_cast<double>(steps) * step_w;
  } else {
    // Root-fed pipeline: per step the root spends S distributing stripes,
    // the workers spend step_w computing; per output block one share
    // returns per worker and the root stores it.
    const double s = costs.sender_seconds;
    const double ret = b2 * kWordBytes / sys.network.bytes_per_s;  // shares
    const double period = std::max(s, step_w);
    rep.run.seconds = s + static_cast<double>(steps) * period +
                      static_cast<double>(nb * nb) * ret + step_w;
    rep.run.bytes_on_network = static_cast<std::uint64_t>(
        static_cast<double>(steps) * 2.0 * b2 * kWordBytes *
            static_cast<double>(sys.p - 1) +
        static_cast<double>(nb * nb) * b2 * kWordBytes);
  }
  rep.run.total_flops = 2.0 * n3;
  rep.run.fpga_flops = rep.run.total_flops * costs.fpga_share;
  rep.run.cpu_flops = rep.run.total_flops - rep.run.fpga_flops;
  rep.run.fpga_busy_seconds =
      cfg.mode == DesignMode::ProcessorOnly
          ? 0.0
          : rep.run.fpga_flops / sys.mm_fpga.peak_flops();
  rep.run.cpu_busy_seconds = rep.run.seconds;  // root/worker CPUs stay hot
  return rep;
}

MmFunctionalResult mm_functional(const SystemParams& sys, const MmConfig& cfg,
                                 const Matrix& a, const Matrix& bmat,
                                 bool use_soft_fp,
                                 sim::TraceRecorder* trace) {
  const long long n = cfg.n;
  const long long b = cfg.b < 0 ? n : cfg.b;
  RCS_CHECK_MSG(n > 0 && b > 0 && n % b == 0, "mm requires b | n");
  RCS_CHECK_MSG(a.rows() == static_cast<std::size_t>(n) &&
                    a.cols() == static_cast<std::size_t>(n) &&
                    bmat.rows() == static_cast<std::size_t>(n) &&
                    bmat.cols() == static_cast<std::size_t>(n),
                "mm operands must be n x n");
  const long long nb = n / b;
  const long long b_f = resolve_b_f(sys, cfg.mode, b, cfg.b_f);
  const MmPartition part = mm_partition_at(sys, b, b_f);
  const fpga::MatMulArray array(sys.mm_fpga);
  const int p = sys.p;
  // PaperSingle fan-out rides the RapidArray DMA engines (isend): the root
  // CPU pays only setup; SerialAll serializes on the CPU (§4.3).
  const bool dma = cfg.fanout == SendFanout::PaperSingle;

  Matrix c(n, n);
  const RunSetup setup{.p = p,
                       .network = sys.network,
                       .node = sys.node_params_mm(),
                       .trace = trace};
  const RunTotals totals = run_ranks(setup, [&](Rank& rank) {
    net::Comm& comm = rank.comm;
    node::ComputeNode& node = rank.node;
    const int me = comm.rank();
    if (p == 1) {
      // Single node: the [22] hybrid multiply accumulates straight into C,
      // one FPGA handshake per block step, no network.
      for (long long u = 0; u < nb; ++u) {
        for (long long v = 0; v < nb; ++v) {
          for (long long w = 0; w < nb; ++w) {
            hybrid_opmm_share(node, array, a.block(u * b, w * b, b, b),
                              bmat.block(w * b, v * b, b, b),
                              c.block(u * b, v * b, b, b), b_f,
                              /*nt=*/false, use_soft_fp, "mm");
            if (b_f > 0) node.fpga_wait();
          }
        }
      }
    } else if (me == 0) {
      // Root: stream every step's blocks to the workers, then store their
      // column shares of the finished output block. Block (u, v)'s step w
      // is tagged (u, v * nb + w).
      for (long long u = 0; u < nb; ++u) {
        for (long long v = 0; v < nb; ++v) {
          for (long long w = 0; w < nb; ++w) {
            fan_out(comm, dma,
                    {{make_tag(kCStripe, u, v * nb + w),
                      net::pack_matrix(a.block(u * b, w * b, b, b))},
                     {make_tag(kDStripe, u, v * nb + w),
                      net::pack_matrix(bmat.block(w * b, v * b, b, b))}});
          }
          for (int r = 1; r < p; ++r) {
            const auto [c0, c1] = worker_columns(b, p, 0, r);
            const net::PackedMatrix share =
                net::recv_matrix(comm, r, make_tag(kEShare, u, v));
            linalg::copy(share.view(),
                         c.block(u * b, v * b + c0, b, c1 - c0));
            node.cpu_compute(node::CpuKernel::MemBound,
                             static_cast<double>(b * (c1 - c0)), "store C");
          }
        }
      }
    } else {
      // Worker: hold a running column share of each block product in
      // on-board SRAM across the nb inner steps, exactly like the streaming
      // accumulation of [21].
      const auto [c0, c1] = worker_columns(b, p, 0, me);
      for (long long u = 0; u < nb; ++u) {
        for (long long v = 0; v < nb; ++v) {
          Matrix e(b, c1 - c0);
          for (long long w = 0; w < nb; ++w) {
            const net::PackedMatrix ablk = net::recv_matrix(
                comm, 0, make_tag(kCStripe, u, v * nb + w));
            const net::PackedMatrix bblk = net::recv_matrix(
                comm, 0, make_tag(kDStripe, u, v * nb + w));
            hybrid_opmm_share(node, array, ablk.view(),
                              bblk.block(0, c0, b, c1 - c0), e.view(), b_f,
                              /*nt=*/false, use_soft_fp, "mm");
          }
          if (b_f > 0) {
            node.fpga_wait();
            node.read_fpga_results("mm block share");
          }
          net::send_matrix(comm, 0, make_tag(kEShare, u, v), e.view());
        }
      }
    }
  });

  MmFunctionalResult res;
  res.c = std::move(c);
  res.partition = part;
  res.run = totals.run;
  res.run.design = std::string("MM/") + to_string(cfg.mode) + "/functional";
  return res;
}

}  // namespace rcs::core
