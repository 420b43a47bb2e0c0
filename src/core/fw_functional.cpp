#include "core/fw_functional.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/functional_run.hpp"
#include "fpga/fw_kernel.hpp"
#include "graph/floyd_warshall.hpp"
#include "net/matrix_channel.hpp"
#include "node/compute_node.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"

namespace rcs::core {

namespace {

using linalg::Matrix;

/// Message channels: the owner's D_tt and op22 pivot-block broadcasts, and
/// the untimed block-column gather.
enum FwChan : int { kDtt = 1, kOp22 = 2, kColumns = 3 };

/// One block task of a wave: target = min(target, a (min-plus) b), plus its
/// timing charge, assignable to either side. Holding the operand spans
/// (rather than opaque closures) lets the DMR check re-run a task from its
/// snapshot and lets injection corrupt exactly the FPGA-assigned results.
/// Aliasing is whole-block or none: op21 aliases b with target, op22
/// aliases a with target, op3 is disjoint.
struct BlockTask {
  Span2D<double> target;
  Span2D<const double> a;
  Span2D<const double> b;
  const char* label;
  std::uint64_t fpga_call = 0;  // rank-local FPGA ordinal (fault key)
};

/// Operand remap for the DMR re-run: an operand that aliases the task's
/// target must read the snapshot-seeded check block instead (the target may
/// already be corrupted by injection).
Span2D<const double> dmr_operand(Span2D<const double> s, Span2D<double> target,
                                 const Matrix& check) {
  return s.data() == target.data() ? check.view() : s;
}

}  // namespace

FwFunctionalResult fw_functional(const SystemParams& sys, const FwConfig& cfg,
                                 const Matrix& d0, bool use_soft_fp,
                                 sim::TraceRecorder* trace,
                                 std::vector<net::MessageEvent>* message_log) {
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0, "n and b must be positive");
  RCS_CHECK_MSG(cfg.n % (cfg.b * sys.p) == 0, "FW layout needs b*p | n");
  RCS_CHECK_MSG(d0.rows() == static_cast<std::size_t>(cfg.n) &&
                    d0.cols() == static_cast<std::size_t>(cfg.n),
                "input matrix shape mismatch");

  const long long n = cfg.n;
  const long long b = cfg.b;
  const long long nb = n / b;
  const int p = sys.p;
  const long long cols_per_rank = nb / p;  // L: block-columns per rank

  // Resolve the per-phase split exactly like the analytic plane.
  const FwPartition part =
      fw_partition_at(sys, n, b, resolve_l1(sys, cfg.mode, n, b, cfg.l1));

  const fpga::FwKernel kernel(sys.fw_fpga);
  kernel.require_fits(b);

  // Fault tolerance (see FwConfig): DMR only engages on FPGA-assigned wave
  // tasks.
  const bool dmr = cfg.fault_tolerance;
  const double task_flops = 2.0 * static_cast<double>(b) *
                            static_cast<double>(b) * static_cast<double>(b);
  const double task_cycles = static_cast<double>(kernel.cycles(b));
  const std::uint64_t task_bytes = kernel.input_bytes(b);

  Matrix distances(n, n);
  const RunSetup setup{.p = p,
                       .network = sys.network,
                       .node = sys.node_params_fw(),
                       .faults = cfg.faults,
                       .max_workers = cfg.max_workers,
                       .trace = trace,
                       .message_log = message_log};
  const RunTotals totals = run_ranks(setup, [&](Rank& rank) {
    net::Comm& comm = rank.comm;
    node::ComputeNode& node = rank.node;
    sim::FaultStats& fstats = rank.faults;
    const sim::FaultPlan* plan = cfg.faults;
    const bool inject = plan != nullptr && plan->bitflip_count() > 0;
    const int me = comm.rank();
    std::uint64_t fpga_calls = 0;  // rank-local FPGA wave-task ordinal

    // Local storage: this rank's block-columns, densely packed.
    const long long col0 = me * cols_per_rank;  // first owned block-column
    Matrix local(n, cols_per_rank * b);
    linalg::copy(d0.block(0, col0 * b, n, cols_per_rank * b), local.view());
    auto lblk = [&](long long q, long long c) {
      RCS_DASSERT(c >= col0 && c < col0 + cols_per_rank);
      return local.block(q * b, (c - col0) * b, b, b);
    };

    // Run a wave of block tasks with the l1 : l2 split. FPGA-assigned tasks
    // stream first (the FPGA pipelines behind the DRAM stream), then the
    // CPU-assigned tasks run; fpga_wait() closes the §4.4 handshake.
    //
    // Wall-clock: the virtual-clock charges are applied serially in exactly
    // the schedule order above (so simulated seconds are byte-identical to
    // the single-threaded runtime), and then the functional block updates —
    // which touch pairwise-disjoint blocks within one wave — fan out on the
    // shared common::ThreadPool.
    auto run_wave = [&](std::vector<BlockTask>& tasks) {
      const long long total = static_cast<long long>(tasks.size());
      const long long on_fpga = std::min<long long>(part.l2, total);
      // The tail of `tasks` goes to the FPGA (op22, pushed first, stays on
      // the CPU whenever it has a slot). Stream the FPGA tasks first so the
      // array pipelines behind the DRAM stream while the CPU then runs its
      // own tasks — the overlap structure of §5.2.
      for (long long i = total - on_fpga; i < total; ++i) {
        auto& task = tasks[static_cast<std::size_t>(i)];
        task.fpga_call = fpga_calls++;
        node.dram_to_fpga(task_bytes);
        node.fpga_submit(task_cycles, task.label);
        node.note_fpga_flops(task_flops);
      }
      for (long long i = 0; i < total - on_fpga; ++i) {
        auto& task = tasks[static_cast<std::size_t>(i)];
        node.cpu_compute(node::CpuKernel::FwBlock, task_flops, task.label);
      }
      if (on_fpga > 0) {
        node.fpga_wait();
        node.read_fpga_results("fw wave results");
      }
      // Per-task fault outcomes, filled inside the parallel region and
      // folded into the stats serially below (in task order, so the
      // accounting is deterministic at any RCS_THREADS).
      std::vector<unsigned char> flipped(tasks.size(), 0);
      std::vector<unsigned char> repaired(tasks.size(), 0);
      common::parallel_for(
          0, static_cast<std::size_t>(total), 1,
          [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
              // task.label is a string literal ("op21"/"op22"/"op3"), so it
              // satisfies PhaseSpan's static-lifetime requirement.
              obs::PhaseSpan phase("fw", tasks[i].label);
              BlockTask& task = tasks[i];
              const bool fpga_task =
                  static_cast<long long>(i) >= total - on_fpga;
              // DMR: snapshot the pre-image before computing; min-plus has
              // no subtraction to hang a checksum on, so the check re-runs
              // the task from the snapshot and compares bitwise.
              Matrix check;
              if (fpga_task && dmr) check = Matrix::from_view(task.target);
              if (fpga_task && use_soft_fp) {
                kernel.run_block_soft(task.target, task.a, task.b);
              } else {
                graph::fw_block(task.target, task.a, task.b);
              }
              if (fpga_task && inject) {
                if (const sim::BitFlip* f =
                        plan->flip_for(me, task.fpga_call)) {
                  sim::apply_bitflip(*f, task.target);
                  flipped[i] = 1;
                }
              }
              if (fpga_task && dmr) {
                const auto a = dmr_operand(task.a, task.target, check);
                const auto bb = dmr_operand(task.b, task.target, check);
                if (use_soft_fp) {
                  kernel.run_block_soft(check.view(), a, bb);
                } else {
                  graph::fw_block(check.view(), a, bb);
                }
                if (!linalg::bit_equal(check.view(), task.target)) {
                  linalg::copy(check.view(), task.target);
                  repaired[i] = 1;
                }
              }
            }
          });
      for (long long i = total - on_fpga; i < total; ++i) {
        if (flipped[static_cast<std::size_t>(i)] != 0) {
          fstats.bitflips_injected += 1;
          sim::note_bitflip_injected();
        }
      }
      if (dmr && on_fpga > 0) {
        // Timing: the CPU re-solves every FPGA task once the wave lands;
        // a mismatch additionally pays the copy-back repair.
        const sim::SimTime check_start = comm.clock().now();
        for (long long i = total - on_fpga; i < total; ++i) {
          obs::PhaseSpan phase("fw", "dmr");
          fstats.checks += 1;
          node.cpu_compute(node::CpuKernel::FwBlock, task_flops, "dmr");
          if (repaired[static_cast<std::size_t>(i)] != 0) {
            const sim::SimTime repair_start = comm.clock().now();
            fstats.detected += 1;
            sim::note_fault_detected();
            node.cpu_compute(node::CpuKernel::MemBound,
                             static_cast<double>(b * b), "dmr.repair");
            fstats.reissued_blocks += 1;
            const sim::SimTime mttr = comm.clock().now() - repair_start;
            fstats.mttr_s.push_back(mttr);
            sim::note_fault_recovered(mttr);
          }
        }
        fstats.recovery_cpu_s += comm.clock().now() - check_start;
      }
      tasks.clear();
    };

    // Lookahead: the receive for iteration t+1's D_tt is posted while
    // iteration t's waves still compute, so the next pivot block streams in
    // behind the current trailing update.
    net::Request dtt_req;

    for (long long t = 0; t < nb; ++t) {
      const int owner = static_cast<int>(t / cols_per_rank);

      // Phase 0: op1 on the owner, then broadcast of D_tt.
      Matrix dtt;
      if (me == owner) {
        {
          obs::PhaseSpan phase("fw", "op1");
          if (cfg.mode == DesignMode::FpgaOnly) {
            node.dram_to_fpga(task_bytes);
            node.fpga_submit(task_cycles, "op1");
            node.note_fpga_flops(task_flops);
            if (use_soft_fp) {
              kernel.run_block_soft(lblk(t, t), lblk(t, t), lblk(t, t));
            } else {
              kernel.run_block(lblk(t, t), lblk(t, t), lblk(t, t));
            }
            node.fpga_wait();
          } else {
            graph::fw_block(lblk(t, t), lblk(t, t), lblk(t, t));
            node.cpu_compute(node::CpuKernel::FwBlock, task_flops, "op1");
          }
        }
        dtt = Matrix::from_view(lblk(t, t));
        // Lookahead fans out over the NIC: the owner's CPU pays setup only
        // and moves on to its op21/op22 wave.
        fan_out(comm, cfg.lookahead, {{make_tag(kDtt, t, 0), dtt.view()}});
      } else if (cfg.lookahead && dtt_req.valid()) {
        dtt = net::wait_matrix(dtt_req);
      } else {
        dtt = net::recv_matrix(comm, owner, make_tag(kDtt, t, 0), "op21");
      }
      // Prefetch the next iteration's pivot diagonal: posting is free, and
      // by the time this iteration's waves finish the block is usually
      // already in flight (or delivered).
      if (cfg.lookahead && t + 1 < nb) {
        const int next_owner = static_cast<int>((t + 1) / cols_per_rank);
        if (me != next_owner) {
          dtt_req =
              comm.irecv(next_owner, make_tag(kDtt, t + 1, 0), "op21");
        }
      }

      // Row order of the op3 waves: every q != t, ascending.
      std::vector<long long> q_list;
      q_list.reserve(static_cast<std::size_t>(nb - 1));
      for (long long q = 0; q < nb; ++q) {
        if (q != t) q_list.push_back(q);
      }

      // Wave 0: op21 on this rank's row-t blocks; the owner additionally
      // computes the first op22 (kept on the CPU side of the split).
      std::vector<BlockTask> tasks;
      if (me == owner && !q_list.empty()) {
        const long long q0 = q_list.front();
        tasks.push_back(BlockTask{lblk(q0, t), lblk(q0, t), dtt.view(),
                                  "op22"});
      }
      for (long long c = col0; c < col0 + cols_per_rank; ++c) {
        if (c == t) continue;
        tasks.push_back(BlockTask{lblk(t, c), dtt.view(), lblk(t, c),
                                  "op21"});
      }
      // Lookahead: post the receive for wave 0's pivot block before the
      // op21 wave computes, so the owner's broadcast streams in behind it.
      net::Request dqt_req;
      if (cfg.lookahead && me != owner && !q_list.empty()) {
        dqt_req = comm.irecv(owner, make_tag(kOp22, t, 0), "op3");
      }
      run_wave(tasks);
      if (me == owner && !q_list.empty()) {
        fan_out(comm, cfg.lookahead,
                {{make_tag(kOp22, t, 0), lblk(q_list.front(), t)}});
      }

      // Waves 1..nb-1: op3 on row q_w; the owner folds the next op22 into
      // its wave and broadcasts it afterwards.
      for (std::size_t w = 0; w < q_list.size(); ++w) {
        const long long q = q_list[w];
        Matrix dqt;
        if (me == owner) {
          dqt = Matrix::from_view(lblk(q, t));
        } else if (cfg.lookahead) {
          dqt = net::wait_matrix(dqt_req);
          // Double-buffer: wave w+1's pivot block transfers while wave w's
          // op3 tasks compute below.
          if (w + 1 < q_list.size()) {
            dqt_req = comm.irecv(
                owner, make_tag(kOp22, t, static_cast<long long>(w + 1)),
                "op3");
          }
        } else {
          dqt = net::recv_matrix(
              comm, owner, make_tag(kOp22, t, static_cast<long long>(w)),
              "op3");
        }
        if (me == owner && w + 1 < q_list.size()) {
          const long long qn = q_list[w + 1];
          tasks.push_back(BlockTask{lblk(qn, t), lblk(qn, t), dtt.view(),
                                    "op22"});
        }
        // dqt must outlive the task spans: keep it alive for the wave.
        for (long long c = col0; c < col0 + cols_per_rank; ++c) {
          if (c == t) continue;
          tasks.push_back(BlockTask{lblk(q, c), dqt.view(), lblk(t, c),
                                    "op3"});
        }
        run_wave(tasks);
        if (me == owner && w + 1 < q_list.size()) {
          fan_out(comm, cfg.lookahead,
                  {{make_tag(kOp22, t, static_cast<long long>(w + 1)),
                    lblk(q_list[w + 1], t)}});
        }
      }
      // The barrier only serializes the blocking schedule; under lookahead
      // the iteration-t tags keep cross-iteration messages apart and each
      // rank's own data dependencies order its work.
      if (!cfg.lookahead) comm.barrier();
    }

    // Untimed gather of the block-columns at rank 0, kept out of the
    // analyzed timeline.
    rank.end_timed();
    obs::PhaseSpan phase("fw", "gather");
    if (me == 0) {
      linalg::copy(local.view(), distances.block(0, 0, n, cols_per_rank * b));
      for (int r = 1; r < p; ++r) {
        Matrix cols = net::recv_matrix(comm, r, make_tag(kColumns, 0, r));
        linalg::copy(cols.view(),
                     distances.block(0, r * cols_per_rank * b, n,
                                     cols_per_rank * b));
      }
    } else {
      net::send_matrix(comm, 0, make_tag(kColumns, 0, me), local.view());
    }
  });

  FwFunctionalResult res;
  res.distances = std::move(distances);
  res.partition = part;
  res.run = totals.run;
  res.run.design = std::string("FW/") + to_string(cfg.mode) + "/functional" +
                   (cfg.lookahead ? "+lookahead" : "");
  res.overlap = totals.overlap;
  res.faults = totals.faults;
  return res;
}

}  // namespace rcs::core
