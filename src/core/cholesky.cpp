#include "core/cholesky.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/functional_run.hpp"
#include "fpga/matmul_array.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "net/matrix_channel.hpp"
#include "node/compute_node.hpp"

namespace rcs::core {

namespace {

using linalg::Matrix;

/// Trailing tasks (u, v), u >= v, ordered by readiness: pair i of the panel
/// (the trsm for row t+i) unlocks the tasks with max-index i.
std::vector<std::pair<long long, long long>> opmm_order(long long t,
                                                        long long nb) {
  std::vector<std::pair<long long, long long>> order;
  const long long m = nb - 1 - t;
  order.reserve(static_cast<std::size_t>(m * (m + 1) / 2));
  for (long long i = 1; i <= m; ++i) {
    for (long long j = 1; j <= i; ++j) order.emplace_back(t + i, t + j);
  }
  return order;
}

}  // namespace

CholFunctionalResult cholesky_functional(const SystemParams& sys,
                                         const CholConfig& cfg,
                                         const Matrix& a, bool use_soft_fp,
                                         sim::TraceRecorder* trace) {
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0 && cfg.n % cfg.b == 0,
                "cholesky requires b | n");
  const bool data = !a.empty();  // otherwise a cost-only run
  RCS_CHECK_MSG(!data || (a.rows() == static_cast<std::size_t>(cfg.n) &&
                          a.cols() == static_cast<std::size_t>(cfg.n)),
                "input matrix shape mismatch");
  RCS_CHECK_MSG(sys.p >= 2, "the distributed design needs p >= 2");

  const long long n = cfg.n;
  const long long b = cfg.b;
  const long long nb = n / b;
  check_tag_space(nb);
  const int p = sys.p;
  const long long b_f = resolve_b_f(sys, cfg.mode, b, cfg.b_f);
  const MmPartition part = mm_partition_at(sys, b, b_f);
  LuInterleave li = solve_lu_interleave(sys, b, part, cfg.fanout);
  const int l = cfg.l >= 0 ? cfg.l : li.l;
  const fpga::MatMulArray array(sys.mm_fpga);
  // PaperSingle fan-out rides the RapidArray DMA engines (isend): the panel
  // CPU pays only setup; SerialAll serializes on the CPU (§4.3).
  const bool dma = cfg.fanout == SendFanout::PaperSingle;

  Matrix factored = data ? Matrix(n, n) : Matrix();
  const RunSetup setup{.p = p,
                       .network = sys.network,
                       .node = sys.node_params_mm(),
                       .trace = trace};
  const RunTotals totals = run_ranks(setup, [&](Rank& rank) {
    net::Comm& comm = rank.comm;
    node::ComputeNode& node = rank.node;
    const int me = comm.rank();
    OwnedBlocks blk(a, n, b, p, me, /*lower=*/true);

    for (long long t = 0; t < nb; ++t) {
      const int panel = static_cast<int>(t % p);
      const auto order = opmm_order(t, nb);
      const long long total = static_cast<long long>(order.size());
      const double b3 = static_cast<double>(b) * static_cast<double>(b) *
                        static_cast<double>(b);

      if (me == panel) {
        if (data) linalg::potrf_unblocked(blk(t, t));
        node.cpu_compute(node::CpuKernel::Dpotrf, b3 / 3.0, "opPOTRF");
        long long served = 0, ready = 0;
        // Column t packed once, as each block is finished: col[i] holds
        // (t+i, t), and every task's C and D stripes go out from it.
        const long long m = nb - 1 - t;
        std::vector<net::Payload> col(static_cast<std::size_t>(m + 1));
        auto serve = [&](long long count) {
          for (long long s = 0; s < count && served < ready; ++s, ++served) {
            const auto [u, v] = order[static_cast<std::size_t>(served)];
            fan_out(comm, dma,
                    {{make_tag(kCStripe, t, served),
                      col[static_cast<std::size_t>(u - t)]},
                     {make_tag(kDStripe, t, served),
                      col[static_cast<std::size_t>(v - t)]}});
          }
        };
        for (long long i = 1; i <= m; ++i) {
          if (data) {
            linalg::trsm_right_lower_transposed(blk(t, t), blk(t + i, t));
          }
          node.cpu_compute(node::CpuKernel::Dtrsm, b3, "opL");
          col[static_cast<std::size_t>(i)] = net::pack_matrix(blk(t + i, t));
          ready += i;
          if (l > 0) serve(l);
        }
        serve(total - served);
      } else {
        const auto [c0, c1] = worker_columns(b, p, panel, me);
        const long long cw = c1 - c0;
        for (long long j = 0; j < total; ++j) {
          const auto [u, v] = order[static_cast<std::size_t>(j)];
          const net::PackedMatrix c = net::recv_matrix(
              comm, panel, make_tag(kCStripe, t, j), "opMM");
          const net::PackedMatrix d = net::recv_matrix(
              comm, panel, make_tag(kDStripe, t, j), "opMM");
          Matrix e_store;
          const Span2D<double> e = work_block(e_store, b, cw, data);
          // E[:, c0:c1) = C * D[c0:c1, :]^T — the worker's column share.
          hybrid_opmm_share(node, array, c.view(), d.block(c0, 0, cw, b), e,
                            b_f, /*nt=*/true, use_soft_fp, "opMM");
          if (b_f > 0) {
            node.fpga_wait();
            node.read_fpga_results("opMM partial product");
          }
          const int dst = owner_of(u, v, p);
          if (dst == me) {
            if (data) linalg::matrix_sub(blk(u, v).block(0, c0, b, cw), e);
            node.cpu_compute(node::CpuKernel::MemBound,
                             static_cast<double>(b * cw), "opMS");
          } else {
            net::send_matrix(comm, dst, make_tag(kEShare, t, j), e);
          }
        }
      }

      for (long long j = 0; j < total; ++j) {
        const auto [u, v] = order[static_cast<std::size_t>(j)];
        if (owner_of(u, v, p) != me) continue;
        for (int r = 0; r < p; ++r) {
          if (r == panel || r == me) continue;
          const auto [c0, c1] = worker_columns(b, p, panel, r);
          const net::PackedMatrix e =
              net::recv_matrix(comm, r, make_tag(kEShare, t, j), "opMS");
          if (data) {
            linalg::matrix_sub(blk(u, v).block(0, c0, b, c1 - c0), e.view());
          }
          node.cpu_compute(node::CpuKernel::MemBound,
                           static_cast<double>(b * (c1 - c0)), "opMS");
        }
      }
      comm.barrier();
    }

    // Untimed gather: lower-triangle blocks to rank 0; the upper triangle
    // keeps the input values (potrf semantics).
    rank.end_timed();
    if (me == 0 && data) linalg::copy(a.view(), factored.view());
    blk.gather(comm, factored);
  });

  CholFunctionalResult res;
  res.factored = std::move(factored);
  res.partition = part;
  res.l = l;
  res.run = totals.run;
  res.run.design = std::string("CHOL/") + to_string(cfg.mode) + "/functional";
  return res;
}

}  // namespace rcs::core
