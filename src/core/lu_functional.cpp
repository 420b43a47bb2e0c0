#include "core/lu_functional.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/cholesky.hpp"
#include "core/functional_run.hpp"
#include "fpga/matmul_array.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
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
/// (column v) are done, i.e. after panel pair i = max(u, v) - t. A
/// symmetric factorization has only the tasks u >= v.
std::vector<std::pair<long long, long long>> opmm_order(long long t,
                                                        long long nb,
                                                        bool sym) {
  std::vector<std::pair<long long, long long>> order;
  const long long m = nb - 1 - t;
  order.reserve(static_cast<std::size_t>(sym ? m * (m + 1) / 2 : m * m));
  for (long long i = 1; i <= m; ++i) {
    for (long long j = 1; j <= i; ++j) order.emplace_back(t + i, t + j);
    for (long long j = 1; j < i && !sym; ++j) order.emplace_back(t + j, t + i);
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
/// the array's bit-accurate cores element-wise.
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

/// A worker's pack of the C stripe (u, t) for its native-FP shares: the
/// FPGA rows and the CPU rows, and the iteration t it holds (-1: none).
struct StripePack {
  long long t = -1;
  linalg::PackedA fpga;
  linalg::PackedA cpu;
};

/// A worker's pack of its share of the D stripe (t, v), and the iteration
/// it holds.
struct DSharePack {
  long long t = -1;
  linalg::PackedB d;
};

/// The §5.1 panel-fed schedule, on data or cost-only. `sym` runs it as the
/// symmetric factorization (Cholesky): opPOTRF on the diagonal, opL only
/// (L_ut = A_ut L_tt^-T), the tasks u >= v, D stripes from the packed
/// column with the worker's share taken as C x D^T, and only the lower
/// triangle owned; the gathered strict upper triangle keeps the input. LU's
/// lookahead, fault, ABFT, straggler and max_iterations switches are never
/// set with it.
LuFunctionalResult panel_fed(const SystemParams& sys, const LuConfig& cfg,
                             const Matrix& a, bool use_soft_fp,
                             sim::TraceRecorder* trace, bool sym) {
  const char* name = sym ? "Cholesky" : "LU";
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0 && cfg.n % cfg.b == 0,
                name << " requires b | n");
  const bool data = !a.empty();  // otherwise a cost-only run
  RCS_CHECK_MSG(!data || (a.rows() == static_cast<std::size_t>(cfg.n) &&
                          a.cols() == static_cast<std::size_t>(cfg.n)),
                "input matrix shape mismatch");
  RCS_CHECK_MSG(sys.p >= 2,
                "the distributed " << name << " design needs p >= 2");
  RCS_CHECK_MSG(data || cfg.faults == nullptr ||
                    cfg.faults->bitflip_count() == 0,
                "a cost-only run cannot inject bit-flips: ABFT outcomes "
                "depend on the data");

  const long long n = cfg.n;
  const long long b = cfg.b;
  const long long nb = n / b;
  check_tag_space(nb);
  const long long iterations =
      cfg.max_iterations >= 0 ? std::min<long long>(cfg.max_iterations, nb)
                              : nb;
  const int p = sys.p;

  // Resolve the partition and interleave per the mode and Eqs. 4-5.
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

  // The phase spans' category; lu_drift_report reads "lu".
  const char* cat = sym ? "chol" : "lu";
  Matrix factored = !data ? Matrix() : sym ? a : Matrix(n, n);
  const RunSetup setup{.p = p,
                       .network = sys.network,
                       .node = sys.node_params_mm(),
                       .faults = cfg.faults,
                       .trace = trace};
  const RunTotals totals = run_ranks(setup, [&](Rank& rank) {
    net::Comm& comm = rank.comm;
    node::ComputeNode& node = rank.node;
    sim::FaultStats& fstats = rank.faults;
    const int me = comm.rank();

    // A scheduled bit-flip corrupts the FPGA rows of one E share, keyed by
    // this rank's ordinal of shares with b_f > 0.
    const bool inject =
        cfg.faults != nullptr && cfg.faults->bitflip_count() > 0;
    std::uint64_t fpga_calls = 0;

    OwnedBlocks blk(a, n, b, p, me, /*lower=*/sym);
    // A worker's packs, in slots u - t (C stripes) and v - t (D shares),
    // kept from one iteration to the next; sized at a rank's first pack, so
    // a rank that never packs holds none.
    std::vector<StripePack> cpacks;
    std::vector<DSharePack> dpacks;
    // The E share of a block this rank owns, reused from task to task.
    std::vector<double> e_local;

    for (long long t = 0; t < iterations; ++t) {
      const int panel = static_cast<int>(t % p);
      const auto order = opmm_order(t, nb, sym);
      const long long total = static_cast<long long>(order.size());
      const double b3 = static_cast<double>(b) * static_cast<double>(b) *
                        static_cast<double>(b);
      // Straggler-recovery stash: a worker that owns blocks this iteration
      // keeps the full C/D stripes of its owned tasks (keyed by task index)
      // so a late peer's E share can be re-solved locally. The panel rank
      // owns the stripes outright and needs no stash.
      std::map<long long, std::pair<net::PackedMatrix, net::PackedMatrix>>
          stash;

      if (me == panel) {
        // --- Panel pipeline: opLU (opPOTRF), then opL/opU pairs (opL
        // alone), serving stripe data for up to l ready opMM tasks after
        // each panel operation.
        if (sym) {
          obs::PhaseSpan phase(cat, "opPOTRF");
          if (data) linalg::potrf_unblocked(blk(t, t));
          node.cpu_compute(node::CpuKernel::Dpotrf, b3 / 3.0, "opPOTRF");
        } else {
          obs::PhaseSpan phase(cat, "opLU");
          if (data) linalg::getrf_unblocked(blk(t, t));
          node.cpu_compute(node::CpuKernel::Dgetrf, (2.0 / 3.0) * b3, "opLU");
        }

        long long served = 0;
        long long ready = 0;
        // PaperSingle fan-out rides the RapidArray DMA engines (isend): the
        // panel CPU pays only setup; SerialAll serializes on the CPU (§4.3).
        // Lookahead always uses the DMA engines.
        const bool dma = cfg.fanout == SendFanout::PaperSingle || cfg.lookahead;
        // Panel blocks packed once, as each is finished: lcol[i] holds
        // (t+i, t) and urow[i] holds (t, t+i). Every task's C/D stripes go
        // out from these 2m buffers; a symmetric run sends D from lcol.
        const long long m = nb - 1 - t;
        std::vector<net::Payload> lcol(static_cast<std::size_t>(m + 1));
        std::vector<net::Payload> urow(static_cast<std::size_t>(m + 1));
        auto serve = [&](long long count) {
          for (long long s = 0; s < count && served < ready; ++s, ++served) {
            const auto [u, v] = order[static_cast<std::size_t>(served)];
            fan_out(comm, dma,
                    {{make_tag(kCStripe, t, served),
                      lcol[static_cast<std::size_t>(u - t)]},
                     {make_tag(kDStripe, t, served),
                      (sym ? lcol : urow)[static_cast<std::size_t>(v - t)]}});
          }
        };
        for (long long i = 1; i <= m; ++i) {
          const auto pi = static_cast<std::size_t>(i);
          {
            obs::PhaseSpan phase(cat, "opL");
            if (data && sym) {
              linalg::trsm_right_lower_transposed(blk(t, t), blk(t + i, t));
            } else if (data) {
              linalg::trsm_right_upper(blk(t, t), blk(t + i, t));
            }
            node.cpu_compute(node::CpuKernel::Dtrsm, b3, "opL");
          }
          lcol[pi] = net::pack_matrix(blk(t + i, t));
          if (sym) ready = i * (i + 1) / 2;
          if (l > 0) serve(l);
          if (sym) continue;
          {
            obs::PhaseSpan phase(cat, "opU");
            if (data) linalg::trsm_left_lower_unit(blk(t, t), blk(t, t + i));
            node.cpu_compute(node::CpuKernel::Dtrsm, b3, "opU");
          }
          urow[pi] = net::pack_matrix(blk(t, t + i));
          ready = i * i;
          if (l > 0) serve(l);
        }
        serve(total - served);
      } else {
        // --- Worker: one column share of every opMM of this iteration.
        const auto [c0, c1] = worker_columns(b, p, panel, me);
        const long long cw = c1 - c0;
        const long long b_p = b - b_f;
        // Native FP packs each C stripe (u, t) and each D share (t, v)
        // once, at the first task that reads it; the tasks that share it
        // reuse the pack. A cost-only run, or a worker with no columns,
        // packs nothing.
        const bool pack = data && cw > 0;
        if (pack && cpacks.empty()) {
          cpacks.resize(static_cast<std::size_t>(nb));
          dpacks.resize(static_cast<std::size_t>(nb));
        }
        for (long long j = 0; j < total; ++j) {
          const auto [u, v] = order[static_cast<std::size_t>(j)];
          net::PackedMatrix c =
              net::recv_matrix(comm, panel, make_tag(kCStripe, t, j), "opMM");
          net::PackedMatrix d =
              net::recv_matrix(comm, panel, make_tag(kDStripe, t, j), "opMM");
          // E = C x D[:, c0:c1), or C x D[c0:c1, :]^T when symmetric.
          auto dshare = sym ? d.block(c0, 0, cw, b) : d.block(0, c0, b, cw);
          SharePacks packs;
          if (pack) {
            StripePack& cp = cpacks[static_cast<std::size_t>(u - t)];
            if (cp.t != t) {
              cp.t = t;
              if (b_f > 0 && !use_soft_fp) cp.fpga.pack(c.block(0, 0, b_f, b));
              if (b_p > 0) cp.cpu.pack(c.block(b_f, 0, b_p, b));
            }
            DSharePack& dp = dpacks[static_cast<std::size_t>(v - t)];
            if (dp.t != t) {
              dp.t = t;
              dp.d.pack(dshare, /*transposed=*/sym);
            }
            packs = {&cp.fpga, &cp.cpu, &dp.d};
          }

          // The share, computed into `e` from zero: the opMM kernels, then
          // any scheduled bit-flip, then the ABFT scan and repair.
          auto run_share = [&](Span2D<double> e) {
            if (data) std::fill(e.data(), e.data() + b * cw, 0.0);
            {
              obs::PhaseSpan phase(cat, "opMM");
              hybrid_opmm_share(node, array, c.view(), dshare, e, b_f,
                                /*nt=*/sym, use_soft_fp, "opMM",
                                pack ? &packs : nullptr);
              if (b_f > 0) {
                node.fpga_wait();
                node.read_fpga_results("opMM partial product");
              }
            }
            if (inject && b_f > 0) {
              if (const sim::BitFlip* f =
                      cfg.faults->flip_for(me, fpga_calls++)) {
                sim::apply_bitflip(*f, e.block(0, 0, b_f, cw));
                fstats.bitflips_injected += 1;
              }
            }
            if (!abft || b_f == 0) return;
            // --- ABFT: row/column checksum scan of the FPGA share. A
            // single mismatched (row, col) pair pinpoints one corrupted
            // element, recomputed exactly in stream order; anything wider
            // re-solves the whole share element-wise, bypassing the faulty
            // call. Either repair is bit-identical to the fault-free tile.
            obs::PhaseSpan phase(cat, "abft");
            const sim::SimTime check_start = comm.clock().now();
            fstats.checks += 1;
            node.cpu_compute(
                node::CpuKernel::MemBound,
                static_cast<double>(b_f * b + b * cw + 2 * b_f * cw), "abft");
            auto e_f = e.block(0, 0, b_f, cw);
            auto c_f = c.block(0, 0, b_f, b);
            // A cost-only run has no data to scan and no bit-flip to find.
            const AbftScan scan =
                data ? abft_scan(c_f, dshare, e_f) : AbftScan{};
            if (!scan.clean()) {
              const sim::SimTime repair_start = comm.clock().now();
              fstats.detected += 1;
              if (scan.bad_rows == 1 && scan.bad_cols == 1) {
                e_f(scan.row, scan.col) = array.element(
                    c_f, dshare, scan.row, scan.col, 0.0, use_soft_fp);
                node.cpu_compute(node::CpuKernel::Dgemm,
                                 2.0 * static_cast<double>(b), "abft.repair");
                fstats.corrected_elements += 1;
              } else {
                for (std::size_t ri = 0; ri < e_f.rows(); ++ri) {
                  for (std::size_t rj = 0; rj < e_f.cols(); ++rj) {
                    e_f(ri, rj) = array.element(c_f, dshare, ri, rj, 0.0,
                                                use_soft_fp);
                  }
                }
                node.cpu_compute(node::CpuKernel::Dgemm,
                                 2.0 * static_cast<double>(b_f * b * cw),
                                 "abft.repair");
                fstats.reissued_blocks += 1;
              }
              fstats.mttr_s.push_back(comm.clock().now() - repair_start);
            }
            fstats.recovery_cpu_s += comm.clock().now() - check_start;
          };

          const int dst = owner_of(u, v, p);
          if (dst == me) {
            // This worker owns the block: build the share in the rank's
            // reused buffer and apply its own opMS share locally.
            e_local.resize(data ? static_cast<std::size_t>(b * cw) : 0);
            const Span2D<double> e(data ? e_local.data() : nullptr,
                                   static_cast<std::size_t>(b),
                                   static_cast<std::size_t>(cw));
            run_share(e);
            obs::PhaseSpan phase(cat, "opMS");
            if (data) linalg::matrix_sub(blk(u, v).block(0, c0, b, cw), e);
            node.cpu_compute(node::CpuKernel::MemBound,
                             static_cast<double>(b * cw), "opMS");
          } else {
            // Any other owner's share is built straight in the payload
            // that carries it. Lookahead returns it over the worker's NIC,
            // so its CPU moves straight on to the next task's opMM.
            net::Payload share = net::build_matrix(
                static_cast<std::uint64_t>(b), static_cast<std::uint64_t>(cw),
                !data, run_share);
            const int tag = make_tag(kEShare, t, j);
            cfg.lookahead ? comm.isend(dst, tag, std::move(share))
                          : comm.send(dst, tag, std::move(share));
          }
          if (straggler_s > 0.0 && dst == me) {
            stash.emplace(j, std::make_pair(std::move(c), std::move(d)));
          }
        }
      }

      // --- opMS: every rank applies the updates for the blocks it owns
      // (its own worker share, if any, was already applied in place), in
      // deterministic (j, r) order.
      for (long long j = 0; j < total; ++j) {
        const auto [u, v] = order[static_cast<std::size_t>(j)];
        if (owner_of(u, v, p) != me) continue;
        for (int r = 0; r < p; ++r) {
          if (r == panel || r == me) continue;
          const auto [c0, c1] = worker_columns(b, p, panel, r);
          const int tag = make_tag(kEShare, t, j);
          bool late = false;
          const net::PackedMatrix got =
              straggler_s > 0.0
                  ? net::recv_matrix_deadline(comm, r, tag, straggler_s, &late,
                                              "opMS")
                  : net::recv_matrix(comm, r, tag, "opMS");
          Span2D<const double> e = got.view();
          Matrix redone;
          if (late) {
            // Graceful degradation: the peer's share missed the deadline.
            // Re-solve its columns locally from the stashed (or owned) full
            // stripes — bit-identical to the share the worker would have
            // sent, so the factors don't move.
            obs::PhaseSpan phase(cat, "straggler");
            const sim::SimTime repair_start = comm.clock().now();
            Span2D<const double> cm;
            Span2D<const double> dm;
            if (me == panel) {
              cm = blk(u, t);
              dm = blk(t, v);
            } else {
              const auto& pr = stash.at(j);
              cm = pr.first.view();
              dm = pr.second.view();
            }
            if (data) {
              redone =
                  recompute_share(array, cm, dm, c0, c1, b_f, use_soft_fp);
              e = redone.view();
            }
            node.cpu_compute(node::CpuKernel::Dgemm,
                             2.0 * static_cast<double>(b * b * (c1 - c0)),
                             "straggler.reissue");
            fstats.straggler_reissues += 1;
            const sim::SimTime mttr = comm.clock().now() - repair_start;
            fstats.mttr_s.push_back(mttr);
            fstats.recovery_cpu_s += mttr;
          }
          obs::PhaseSpan phase(cat, "opMS");
          if (data) linalg::matrix_sub(blk(u, v).block(0, c0, b, c1 - c0), e);
          node.cpu_compute(node::CpuKernel::MemBound,
                           static_cast<double>(b * (c1 - c0)), "opMS");
        }
      }
      // Lookahead drops the per-iteration barrier: message tags carry the
      // iteration, so ranks are free to run ahead into t+1 as soon as their
      // own opMS updates have landed.
      if (!cfg.lookahead) comm.barrier();
    }

    // The gather is untimed and stays out of the analyzed timeline.
    rank.end_timed();
    obs::PhaseSpan phase(cat, "gather");
    blk.gather(comm, factored);
  });

  LuFunctionalResult res;
  res.factored = std::move(factored);
  res.partition = part;
  res.l = l;
  res.run = totals.run;
  res.run.design = std::string(sym ? "CHOL/" : "LU/") + to_string(cfg.mode) +
                   "/functional" + (cfg.lookahead ? "+lookahead" : "");
  res.faults = totals.faults;
  return res;
}

}  // namespace

LuFunctionalResult lu_functional(const SystemParams& sys, const LuConfig& cfg,
                                 const Matrix& a, bool use_soft_fp,
                                 sim::TraceRecorder* trace) {
  return panel_fed(sys, cfg, a, use_soft_fp, trace, /*sym=*/false);
}

CholFunctionalResult cholesky_functional(const SystemParams& sys,
                                         const CholConfig& cfg,
                                         const Matrix& a, bool use_soft_fp,
                                         sim::TraceRecorder* trace) {
  const LuConfig lu{.n = cfg.n,
                    .b = cfg.b,
                    .mode = cfg.mode,
                    .b_f = cfg.b_f,
                    .l = cfg.l,
                    .fanout = cfg.fanout};
  LuFunctionalResult res = panel_fed(sys, lu, a, use_soft_fp, trace,
                                     /*sym=*/true);
  return {std::move(res.factored), std::move(res.run), res.partition, res.l};
}

}  // namespace rcs::core
