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
                                 sim::TraceRecorder* trace) {
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0, "n and b must be positive");
  RCS_CHECK_MSG(cfg.n % (cfg.b * sys.p) == 0, "FW layout needs b*p | n");
  const bool data = !d0.empty();  // otherwise a cost-only run
  RCS_CHECK_MSG(!data || (d0.rows() == static_cast<std::size_t>(cfg.n) &&
                          d0.cols() == static_cast<std::size_t>(cfg.n)),
                "input matrix shape mismatch");
  RCS_CHECK_MSG(data || cfg.faults == nullptr ||
                    cfg.faults->bitflip_count() == 0,
                "a cost-only run cannot inject bit-flips: DMR outcomes "
                "depend on the data");

  const long long n = cfg.n;
  const long long b = cfg.b;
  const long long nb = n / b;
  check_tag_space(nb);
  const long long iterations =
      cfg.max_iterations >= 0 ? std::min<long long>(cfg.max_iterations, nb)
                              : nb;
  const int p = sys.p;
  const long long cols_per_rank = nb / p;  // L: block-columns per rank

  // Resolve the per-phase split per the mode and Eq. 6.
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

  Matrix distances = data ? Matrix(n, n) : Matrix();
  const RunSetup setup{.p = p,
                       .network = sys.network,
                       .node = sys.node_params_fw(),
                       .faults = cfg.faults,
                       .trace = trace};
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
    Matrix local_store;
    const Span2D<double> local =
        work_block(local_store, n, cols_per_rank * b, data);
    if (data) linalg::copy(d0.block(0, col0 * b, n, cols_per_rank * b), local);
    auto lblk = [&](long long q, long long c) {
      RCS_DASSERT(c >= col0 && c < col0 + cols_per_rank);
      return local.block(q * b, (c - col0) * b, b, b);
    };

    // Per-task fault outcomes of the current wave, filled inside its
    // parallel region and folded into the stats serially (in task order, so
    // the accounting is deterministic at any RCS_THREADS). Held here so that
    // the waves reuse one allocation.
    std::vector<unsigned char> flipped;
    std::vector<unsigned char> repaired;

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
      flipped.assign(tasks.size(), 0);
      repaired.assign(tasks.size(), 0);
      if (data) {  // a cost-only run computes nothing
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
      }
      for (long long i = total - on_fpga; i < total; ++i) {
        if (flipped[static_cast<std::size_t>(i)] != 0) {
          fstats.bitflips_injected += 1;
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
            node.cpu_compute(node::CpuKernel::MemBound,
                             static_cast<double>(b * b), "dmr.repair");
            fstats.reissued_blocks += 1;
            fstats.mttr_s.push_back(comm.clock().now() - repair_start);
          }
        }
        fstats.recovery_cpu_s += comm.clock().now() - check_start;
      }
      tasks.clear();
    };

    for (long long t = 0; t < iterations; ++t) {
      const int owner = static_cast<int>(t / cols_per_rank);

      // Phase 0: op1 on the owner, then broadcast of D_tt. The owner reads
      // D_tt from the buffer it packed, like every other rank.
      net::PackedMatrix dtt;
      if (me == owner) {
        {
          obs::PhaseSpan phase("fw", "op1");
          if (cfg.mode == DesignMode::FpgaOnly) {
            node.dram_to_fpga(task_bytes);
            node.fpga_submit(task_cycles, "op1");
            node.note_fpga_flops(task_flops);
            if (data && use_soft_fp) {
              kernel.run_block_soft(lblk(t, t), lblk(t, t), lblk(t, t));
            } else if (data) {
              kernel.run_block(lblk(t, t), lblk(t, t), lblk(t, t));
            }
            node.fpga_wait();
          } else {
            if (data) graph::fw_block(lblk(t, t), lblk(t, t), lblk(t, t));
            node.cpu_compute(node::CpuKernel::FwBlock, task_flops, "op1");
          }
        }
        dtt = net::PackedMatrix(net::pack_matrix(lblk(t, t)));
        // Lookahead fans out over the NIC: the owner's CPU pays setup only
        // and moves on to its op21/op22 wave.
        fan_out(comm, cfg.lookahead, {{make_tag(kDtt, t, 0), dtt.payload()}});
      } else {
        dtt = net::recv_matrix(comm, owner, make_tag(kDtt, t, 0), "op21");
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
      run_wave(tasks);
      // The owner's latest op22 block, packed once for its fan-out and read
      // back as the next wave's D_qt.
      net::PackedMatrix op22;
      if (me == owner && !q_list.empty()) {
        op22 = net::PackedMatrix(net::pack_matrix(lblk(q_list.front(), t)));
        fan_out(comm, cfg.lookahead, {{make_tag(kOp22, t, 0), op22.payload()}});
      }

      // Waves 1..nb-1: op3 on row q_w; the owner folds the next op22 into
      // its wave and broadcasts it afterwards.
      for (std::size_t w = 0; w < q_list.size(); ++w) {
        const long long q = q_list[w];
        const net::PackedMatrix dqt =
            me == owner
                ? op22
                : net::recv_matrix(
                      comm, owner,
                      make_tag(kOp22, t, static_cast<long long>(w)), "op3");
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
          op22 = net::PackedMatrix(net::pack_matrix(lblk(q_list[w + 1], t)));
          fan_out(comm, cfg.lookahead,
                  {{make_tag(kOp22, t, static_cast<long long>(w + 1)),
                    op22.payload()}});
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
    if (!data) return;
    obs::PhaseSpan phase("fw", "gather");
    if (me == 0) {
      linalg::copy(local, distances.block(0, 0, n, cols_per_rank * b));
      for (int r = 1; r < p; ++r) {
        const net::PackedMatrix cols =
            net::recv_matrix(comm, r, make_tag(kColumns, 0, r));
        linalg::copy(cols.view(),
                     distances.block(0, r * cols_per_rank * b, n,
                                     cols_per_rank * b));
      }
    } else {
      net::send_matrix(comm, 0, make_tag(kColumns, 0, me), local);
    }
  });

  FwFunctionalResult res;
  res.distances = std::move(distances);
  res.partition = part;
  res.run = totals.run;
  res.run.design = std::string("FW/") + to_string(cfg.mode) + "/functional" +
                   (cfg.lookahead ? "+lookahead" : "");
  res.faults = totals.faults;
  return res;
}

}  // namespace rcs::core
