#include "core/lu_functional.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/functional_run.hpp"
#include "fpga/matmul_array.hpp"
#include "linalg/blas.hpp"
#include "linalg/getrf.hpp"
#include "net/matrix_channel.hpp"
#include "node/compute_node.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"

namespace rcs::core {

namespace {

using linalg::Matrix;

/// Deterministic per-iteration list of opMM tasks (u, v), ordered by the
/// panel pipeline: tasks become ready when both their opL (row u) and opU
/// (column v) are done, i.e. after panel pair i = max(u, v) - t.
std::vector<std::pair<long long, long long>> opmm_order(long long t,
                                                        long long nb) {
  std::vector<std::pair<long long, long long>> order;
  const long long m = nb - 1 - t;
  order.reserve(static_cast<std::size_t>(m * m));
  for (long long i = 1; i <= m; ++i) {
    for (long long j = 1; j <= i; ++j) order.emplace_back(t + i, t + j);
    for (long long j = 1; j < i; ++j) order.emplace_back(t + j, t + i);
  }
  return order;
}

/// ABFT checksum scan of an FPGA opMM share E_f = C_f x D computed from
/// zero. Both invariants are O(roundoff)-tight identities of the exact
/// product: sum_i E(i, j) = (colsums of C_f) . D(:, j) and
/// sum_j E(i, j) = C_f(i, :) . (rowsums of D). Checksum roundoff scales
/// with |expected| while the injected flips (mantissa bit >= ~40) sit
/// orders of magnitude above it, so a fixed relative tolerance separates
/// them cleanly at the functional plane's scales.
constexpr double kAbftTol = 1e-9;

struct AbftScan {
  int bad_rows = 0;
  int bad_cols = 0;
  std::size_t row = 0;  // last mismatched row / column
  std::size_t col = 0;
  bool clean() const { return bad_rows == 0 && bad_cols == 0; }
};

AbftScan abft_scan(Span2D<const double> c_f, Span2D<const double> d,
                   Span2D<const double> e_f) {
  const std::size_t m = e_f.rows();
  const std::size_t w = e_f.cols();
  const std::size_t kk = c_f.cols();
  AbftScan scan;
  std::vector<double> csum(kk, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t l = 0; l < kk; ++l) csum[l] += c_f(i, l);
  }
  for (std::size_t j = 0; j < w; ++j) {
    double expect = 0.0;
    double actual = 0.0;
    for (std::size_t l = 0; l < kk; ++l) expect += csum[l] * d(l, j);
    for (std::size_t i = 0; i < m; ++i) actual += e_f(i, j);
    if (!(std::abs(actual - expect) <=
          kAbftTol * (1.0 + std::abs(expect)))) {
      ++scan.bad_cols;
      scan.col = j;
    }
  }
  std::vector<double> rsum(kk, 0.0);
  for (std::size_t l = 0; l < kk; ++l) {
    for (std::size_t j = 0; j < w; ++j) rsum[l] += d(l, j);
  }
  for (std::size_t i = 0; i < m; ++i) {
    double expect = 0.0;
    double actual = 0.0;
    for (std::size_t l = 0; l < kk; ++l) expect += c_f(i, l) * rsum[l];
    for (std::size_t j = 0; j < w; ++j) actual += e_f(i, j);
    if (!(std::abs(actual - expect) <=
          kAbftTol * (1.0 + std::abs(expect)))) {
      ++scan.bad_rows;
      scan.row = i;
    }
  }
  return scan;
}

/// Recompute a worker's E share (columns [c0, c1) of C x D) from the full
/// stripes, bit-identical to the worker's own hybrid result: every entry
/// accumulates in ascending inner-index order, exactly like both the
/// MatMulArray stream and the host gemm. The soft-FP rows re-run through
/// the array's bit-accurate cores element-wise (bypassing any fault hook).
Matrix recompute_share(const fpga::MatMulArray& mm, Span2D<const double> c,
                       Span2D<const double> d, long long c0, long long c1,
                       long long b_f, bool use_soft_fp) {
  const long long rows = static_cast<long long>(c.rows());
  const long long cw = c1 - c0;
  Matrix e(rows, cw);
  auto dshare = d.block(0, c0, d.rows(), cw);
  if (b_f > 0) {
    auto c_f = c.block(0, 0, b_f, c.cols());
    auto e_f = e.block(0, 0, b_f, cw);
    if (use_soft_fp) {
      for (long long i = 0; i < b_f; ++i) {
        for (long long j = 0; j < cw; ++j) {
          e_f(i, j) = mm.element(c_f, dshare, static_cast<std::size_t>(i),
                                 static_cast<std::size_t>(j), 0.0,
                                 /*soft=*/true);
        }
      }
    } else {
      linalg::gemm(c_f, dshare, e_f);
    }
  }
  if (rows - b_f > 0) {
    linalg::gemm(c.block(b_f, 0, rows - b_f, c.cols()), dshare,
                 e.block(b_f, 0, rows - b_f, cw));
  }
  return e;
}

}  // namespace

LuFunctionalResult lu_functional(const SystemParams& sys, const LuConfig& cfg,
                                 const Matrix& a, bool use_soft_fp,
                                 sim::TraceRecorder* trace,
                                 std::vector<net::MessageEvent>* message_log) {
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0 && cfg.n % cfg.b == 0,
                "LU requires b | n");
  RCS_CHECK_MSG(a.rows() == static_cast<std::size_t>(cfg.n) &&
                    a.cols() == static_cast<std::size_t>(cfg.n),
                "input matrix shape mismatch");
  RCS_CHECK_MSG(sys.p >= 2, "the distributed LU design needs p >= 2");

  const long long n = cfg.n;
  const long long b = cfg.b;
  const long long nb = n / b;
  const int p = sys.p;

  // Resolve the partition and interleave exactly like the analytic plane.
  const long long b_f = resolve_b_f(sys, cfg.mode, b, cfg.b_f);
  const MmPartition part = mm_partition_at(sys, b, b_f);
  LuInterleave li = solve_lu_interleave(sys, b, part, cfg.fanout);
  const int l = cfg.l >= 0 ? cfg.l : li.l;

  const fpga::MatMulArray array(sys.mm_fpga);

  // Fault tolerance switches (the plan itself is wired by the harness).
  const bool abft = cfg.fault_tolerance;
  const double straggler_s = cfg.straggler_timeout_s;
  RCS_CHECK_MSG(straggler_s >= 0.0, "negative straggler timeout");
  RCS_CHECK_MSG(straggler_s == 0.0 || cfg.fault_tolerance,
                "straggler_timeout_s requires fault_tolerance");

  Matrix factored(n, n);
  const RunSetup setup{.p = p,
                       .network = sys.network,
                       .node = sys.node_params_mm(),
                       .faults = cfg.faults,
                       .max_workers = cfg.max_workers,
                       .trace = trace,
                       .message_log = message_log};
  const RunTotals totals = run_ranks(setup, [&](Rank& rank) {
    net::Comm& comm = rank.comm;
    node::ComputeNode& node = rank.node;
    sim::FaultStats& fstats = rank.faults;
    const int me = comm.rank();

    // When the plan schedules bit-flips, this rank's FPGA calls run through
    // a private hooked array that corrupts the scheduled call's result tile
    // in place. The shared const array stays on the fault-free path.
    std::unique_ptr<fpga::MatMulArray> injected;
    if (cfg.faults != nullptr && cfg.faults->bitflip_count() > 0) {
      injected = std::make_unique<fpga::MatMulArray>(sys.mm_fpga);
      injected->set_fault_hook(
          [plan = cfg.faults, me, &fstats](std::uint64_t call,
                                           Span2D<double> tile) {
            if (const sim::BitFlip* f = plan->flip_for(me, call)) {
              sim::apply_bitflip(*f, tile);
              fstats.bitflips_injected += 1;
              sim::note_bitflip_injected();
            }
          });
    }
    const fpga::MatMulArray& mm = injected != nullptr ? *injected : array;

    OwnedBlocks blk(a, b, p, me, /*lower=*/false);

    for (long long t = 0; t < nb; ++t) {
      const int panel = static_cast<int>(t % p);
      const auto order = opmm_order(t, nb);
      const long long total = static_cast<long long>(order.size());
      const double b3 = static_cast<double>(b) * static_cast<double>(b) *
                        static_cast<double>(b);
      // Straggler-recovery stash: a worker that owns blocks this iteration
      // keeps the full C/D stripes of its owned tasks (keyed by task index)
      // so a late peer's E share can be re-solved locally. The panel rank
      // owns the stripes outright and needs no stash.
      std::map<long long, std::pair<Matrix, Matrix>> stash;

      if (me == panel) {
        // --- Panel pipeline: opLU, then opL/opU pairs, serving stripe data
        // for up to l ready opMM tasks after each panel operation.
        {
          obs::PhaseSpan phase("lu", "opLU");
          linalg::getrf_unblocked(blk(t, t).view());
          node.cpu_compute(node::CpuKernel::Dgetrf, (2.0 / 3.0) * b3, "opLU");
        }

        long long served = 0;
        long long ready = 0;
        // PaperSingle fan-out rides the RapidArray DMA engines (isend): the
        // panel CPU pays only setup; SerialAll serializes on the CPU (§4.3).
        // The lookahead pipeline always uses the DMA engines — hiding the
        // stripe transfers is its whole point.
        const bool dma = cfg.fanout == SendFanout::PaperSingle || cfg.lookahead;
        auto serve = [&](long long count) {
          for (long long s = 0; s < count && served < ready; ++s, ++served) {
            const auto [u, v] = order[static_cast<std::size_t>(served)];
            fan_out(comm, dma,
                    {{make_tag(kCStripe, t, served), blk(u, t).view()},
                     {make_tag(kDStripe, t, served), blk(t, v).view()}});
          }
        };
        const long long m = nb - 1 - t;
        for (long long i = 1; i <= m; ++i) {
          {
            obs::PhaseSpan phase("lu", "opL");
            linalg::trsm_right_upper(blk(t, t).view(), blk(t + i, t).view());
            node.cpu_compute(node::CpuKernel::Dtrsm, b3, "opL");
          }
          if (l > 0) serve(l);
          {
            obs::PhaseSpan phase("lu", "opU");
            linalg::trsm_left_lower_unit(blk(t, t).view(),
                                         blk(t, t + i).view());
            node.cpu_compute(node::CpuKernel::Dtrsm, b3, "opU");
          }
          ready = i * i;
          if (l > 0) serve(l);
        }
        serve(total - served);
      } else {
        // --- Worker: one column share of every opMM of this iteration.
        const auto [c0, c1] = worker_columns(b, p, panel, me);
        const long long cw = c1 - c0;
        // Lookahead: double-buffer the stripe stream — task j+1's C/D
        // receives are posted before task j's opMM runs, so the panel's
        // transfers land behind the trailing update instead of in front of
        // it. The blocking schedule receives in place (and still records
        // overlap, for the blocking-vs-lookahead comparison).
        net::Request c_req, d_req;
        if (cfg.lookahead && total > 0) {
          c_req = comm.irecv(panel, make_tag(kCStripe, t, 0), "opMM");
          d_req = comm.irecv(panel, make_tag(kDStripe, t, 0), "opMM");
        }
        for (long long j = 0; j < total; ++j) {
          const auto [u, v] = order[static_cast<std::size_t>(j)];
          Matrix c, d;
          if (cfg.lookahead) {
            c = net::wait_matrix(c_req);
            d = net::wait_matrix(d_req);
            if (j + 1 < total) {
              c_req =
                  comm.irecv(panel, make_tag(kCStripe, t, j + 1), "opMM");
              d_req =
                  comm.irecv(panel, make_tag(kDStripe, t, j + 1), "opMM");
            }
          } else {
            c = net::recv_matrix(comm, panel, make_tag(kCStripe, t, j),
                                 "opMM");
            d = net::recv_matrix(comm, panel, make_tag(kDStripe, t, j),
                                 "opMM");
          }
          Matrix e(b, cw);
          auto dshare = d.block(0, c0, b, cw);

          {
            obs::PhaseSpan phase("lu", "opMM");
            hybrid_opmm_share(node, mm, c.view(), dshare, e.view(), b_f,
                              /*nt=*/false, use_soft_fp, "opMM");
            if (b_f > 0) {
              node.fpga_wait();
              node.read_fpga_results("opMM partial product");
            }
          }
          if (abft && b_f > 0) {
            // --- ABFT: row/column checksum scan of the FPGA share. A
            // single mismatched (row, col) pair pinpoints one corrupted
            // element, recomputed exactly in stream order; anything wider
            // re-solves the whole share element-wise, bypassing the faulty
            // call. Either repair is bit-identical to the fault-free tile.
            obs::PhaseSpan phase("lu", "abft");
            const sim::SimTime check_start = comm.clock().now();
            fstats.checks += 1;
            node.cpu_compute(
                node::CpuKernel::MemBound,
                static_cast<double>(b_f * b + b * cw + 2 * b_f * cw), "abft");
            auto e_f = e.block(0, 0, b_f, cw);
            auto c_f = c.block(0, 0, b_f, b);
            const AbftScan scan = abft_scan(c_f, dshare, e_f);
            if (!scan.clean()) {
              const sim::SimTime repair_start = comm.clock().now();
              fstats.detected += 1;
              sim::note_fault_detected();
              if (scan.bad_rows == 1 && scan.bad_cols == 1) {
                e_f(scan.row, scan.col) = mm.element(
                    c_f, dshare, scan.row, scan.col, 0.0, use_soft_fp);
                node.cpu_compute(node::CpuKernel::Dgemm,
                                 2.0 * static_cast<double>(b), "abft.repair");
                fstats.corrected_elements += 1;
              } else {
                for (std::size_t ri = 0; ri < e_f.rows(); ++ri) {
                  for (std::size_t rj = 0; rj < e_f.cols(); ++rj) {
                    e_f(ri, rj) = mm.element(c_f, dshare, ri, rj, 0.0,
                                             use_soft_fp);
                  }
                }
                node.cpu_compute(node::CpuKernel::Dgemm,
                                 2.0 * static_cast<double>(b_f * b * cw),
                                 "abft.repair");
                fstats.reissued_blocks += 1;
              }
              const sim::SimTime mttr = comm.clock().now() - repair_start;
              fstats.mttr_s.push_back(mttr);
              sim::note_fault_recovered(mttr);
            }
            fstats.recovery_cpu_s += comm.clock().now() - check_start;
          }
          const int dst = owner_of(u, v, p);
          if (dst == me) {
            // This worker owns the block: apply its own opMS share locally.
            obs::PhaseSpan phase("lu", "opMS");
            linalg::matrix_sub(blk(u, v).block(0, c0, b, cw), e.view());
            node.cpu_compute(node::CpuKernel::MemBound,
                             static_cast<double>(b * cw), "opMS");
          } else if (cfg.lookahead) {
            // The E share rides the worker's NIC so its CPU moves straight
            // on to the next task's opMM.
            net::isend_matrix(comm, dst, make_tag(kEShare, t, j),
                              e.view());
          } else {
            net::send_matrix(comm, dst, make_tag(kEShare, t, j),
                             e.view());
          }
          if (straggler_s > 0.0 && dst == me) {
            stash.emplace(j, std::make_pair(std::move(c), std::move(d)));
          }
        }
      }

      // --- opMS: every rank applies the updates for the blocks it owns
      // (its own worker share, if any, was already applied in place).
      // Deterministic (j, r) order in both schedules; lookahead posts every
      // expected receive up front so later shares stream in while earlier
      // ones are applied.
      struct EShare {
        long long j;
        int r;
        long long c0, c1;
        net::Request req;
      };
      std::vector<EShare> shares;
      for (long long j = 0; j < total; ++j) {
        const auto [u, v] = order[static_cast<std::size_t>(j)];
        if (owner_of(u, v, p) != me) continue;
        for (int r = 0; r < p; ++r) {
          if (r == panel || r == me) continue;
          const auto [c0, c1] = worker_columns(b, p, panel, r);
          shares.push_back(EShare{j, r, c0, c1, net::Request()});
        }
      }
      if (cfg.lookahead) {
        for (EShare& s : shares) {
          s.req = comm.irecv(s.r, make_tag(kEShare, t, s.j), "opMS");
        }
      }
      for (EShare& s : shares) {
        const auto [u, v] = order[static_cast<std::size_t>(s.j)];
        Matrix e;
        bool late = false;
        if (straggler_s > 0.0) {
          e = cfg.lookahead
                  ? net::wait_matrix_deadline(s.req, straggler_s, &late)
                  : net::recv_matrix_deadline(
                        comm, s.r, make_tag(kEShare, t, s.j),
                        straggler_s, &late, "opMS");
        } else {
          e = cfg.lookahead
                  ? net::wait_matrix(s.req)
                  : net::recv_matrix(
                        comm, s.r, make_tag(kEShare, t, s.j),
                        "opMS");
        }
        if (late) {
          // Graceful degradation: the peer's share missed the deadline.
          // Re-solve its columns locally from the stashed (or owned) full
          // stripes — bit-identical to the share the worker would have
          // sent, so the factors don't move.
          obs::PhaseSpan phase("lu", "straggler");
          const sim::SimTime repair_start = comm.clock().now();
          const Matrix* cm = nullptr;
          const Matrix* dm = nullptr;
          if (me == panel) {
            cm = &blk(u, t);
            dm = &blk(t, v);
          } else {
            const auto& pr = stash.at(s.j);
            cm = &pr.first;
            dm = &pr.second;
          }
          e = recompute_share(mm, cm->view(), dm->view(), s.c0, s.c1, b_f,
                              use_soft_fp);
          node.cpu_compute(
              node::CpuKernel::Dgemm,
              2.0 * static_cast<double>(b * b * (s.c1 - s.c0)),
              "straggler.reissue");
          fstats.straggler_reissues += 1;
          const sim::SimTime mttr = comm.clock().now() - repair_start;
          fstats.mttr_s.push_back(mttr);
          fstats.recovery_cpu_s += mttr;
          sim::note_fault_recovered(mttr);
        }
        obs::PhaseSpan phase("lu", "opMS");
        linalg::matrix_sub(blk(u, v).block(0, s.c0, b, s.c1 - s.c0),
                           e.view());
        node.cpu_compute(node::CpuKernel::MemBound,
                         static_cast<double>(b * (s.c1 - s.c0)), "opMS");
      }
      // Lookahead drops the per-iteration barrier: message tags carry the
      // iteration, so ranks are free to run ahead into t+1 as soon as their
      // own opMS updates have landed.
      if (!cfg.lookahead) comm.barrier();
    }

    // The gather is untimed and stays out of the analyzed timeline.
    rank.end_timed();
    obs::PhaseSpan phase("lu", "gather");
    blk.gather(comm, factored);
  });

  LuFunctionalResult res;
  res.factored = std::move(factored);
  res.partition = part;
  res.l = l;
  res.run = totals.run;
  res.run.design = std::string("LU/") + to_string(cfg.mode) + "/functional" +
                   (cfg.lookahead ? "+lookahead" : "");
  res.overlap = totals.overlap;
  res.faults = totals.faults;
  return res;
}

}  // namespace rcs::core
