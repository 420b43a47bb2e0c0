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

MmFunctionalResult mm_functional(const SystemParams& sys, const MmConfig& cfg,
                                 const Matrix& a, const Matrix& bmat,
                                 bool use_soft_fp,
                                 sim::TraceRecorder* trace) {
  const long long n = cfg.n;
  const long long b = cfg.b < 0 ? n : cfg.b;
  RCS_CHECK_MSG(n > 0 && b > 0 && n % b == 0, "mm requires b | n");
  const bool data = !a.empty() || !bmat.empty();  // otherwise cost-only
  const auto nn = static_cast<std::size_t>(n);
  RCS_CHECK_MSG(!data || (a.rows() == nn && a.cols() == nn &&
                          bmat.rows() == nn && bmat.cols() == nn),
                "mm operands must be n x n");
  // A cost-only run reads the operands' shapes alone.
  const Span2D<const double> av =
      data ? a.view() : Span2D<const double>(nullptr, nn, nn);
  const Span2D<const double> bv =
      data ? bmat.view() : Span2D<const double>(nullptr, nn, nn);
  const long long nb = n / b;
  check_tag_space(nb);
  const long long b_f = resolve_b_f(sys, cfg.mode, b, cfg.b_f);
  const MmPartition part = mm_partition_at(sys, b, b_f);
  const fpga::MatMulArray array(sys.mm_fpga);
  const int p = sys.p;
  // PaperSingle fan-out rides the RapidArray DMA engines (isend): the root
  // CPU pays only setup; SerialAll serializes on the CPU (§4.3).
  const bool dma = cfg.fanout == SendFanout::PaperSingle;

  Matrix c_store;
  const Span2D<double> c = work_block(c_store, n, n, data);
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
            hybrid_opmm_share(node, array, av.block(u * b, w * b, b, b),
                              bv.block(w * b, v * b, b, b),
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
                      net::pack_matrix(av.block(u * b, w * b, b, b))},
                     {make_tag(kDStripe, u, v * nb + w),
                      net::pack_matrix(bv.block(w * b, v * b, b, b))}});
          }
          for (int r = 1; r < p; ++r) {
            const auto [c0, c1] = worker_columns(b, p, 0, r);
            const net::PackedMatrix share =
                net::recv_matrix(comm, r, make_tag(kEShare, u, v));
            if (data) {
              linalg::copy(share.view(),
                           c.block(u * b, v * b + c0, b, c1 - c0));
            }
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
          Matrix e_store;
          const Span2D<double> e = work_block(e_store, b, c1 - c0, data);
          for (long long w = 0; w < nb; ++w) {
            const net::PackedMatrix ablk = net::recv_matrix(
                comm, 0, make_tag(kCStripe, u, v * nb + w));
            const net::PackedMatrix bblk = net::recv_matrix(
                comm, 0, make_tag(kDStripe, u, v * nb + w));
            hybrid_opmm_share(node, array, ablk.view(),
                              bblk.block(0, c0, b, c1 - c0), e, b_f,
                              /*nt=*/false, use_soft_fp, "mm");
          }
          if (b_f > 0) {
            node.fpga_wait();
            node.read_fpga_results("mm block share");
          }
          net::send_matrix(comm, 0, make_tag(kEShare, u, v), e);
        }
      }
    }
  });

  MmFunctionalResult res;
  res.c = std::move(c_store);
  res.partition = part;
  res.run = totals.run;
  res.run.design = std::string("MM/") + to_string(cfg.mode) + "/functional";
  return res;
}

}  // namespace rcs::core
