#include "core/functional_run.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fpga/matmul_array.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "net/matrix_channel.hpp"

namespace rcs::core {

Rank::Rank(net::Comm& comm_, node::ComputeNode& node_, RunTotals& out)
    : comm(comm_), node(node_), faults(out.faults), out_(out) {}

void Rank::end_timed() {
  if (!timed_) return;
  timed_ = false;
  comm.set_trace(nullptr);
  RunReport& r = out_.run;
  r.seconds = comm.clock().now();
  r.cpu_busy_seconds = node.cpu_busy_total();
  r.fpga_busy_seconds = node.fpga_busy_total();
  r.cpu_flops = node.cpu_flops_total();
  r.fpga_flops = node.fpga_flops_total();
  r.bytes_on_network = comm.bytes_sent();
  r.coordination_events = node.coordination_events();
  out_.overlap = comm.overlap_stats();
  out_.faults += comm.fault_stats();  // link/crash side of the plan
}

RunTotals run_ranks(const RunSetup& setup,
                    const std::function<void(Rank&)>& body) {
  // An empty plan is the fault-free path: the network and node layers skip
  // every fault branch when the installed plan is null.
  const sim::FaultPlan* plan =
      setup.faults != nullptr && !setup.faults->empty() ? setup.faults
                                                        : nullptr;
  const auto p = static_cast<std::size_t>(setup.p);

  // Spawn the shared compute pool before the ranks exist: every rank's
  // kernels land on one process-wide worker set (p concurrent ranks never
  // oversubscribe the machine) and never race the pool's lazy construction.
  // Virtual-clock charges stay serial per rank, so simulated timings are
  // independent of RCS_THREADS.
  common::ThreadPool::global();

  net::World world(setup.p, setup.network);
  world.set_message_logging(setup.message_log != nullptr);
  world.set_fault_plan(plan);
  world.set_max_workers(setup.max_workers);
  std::vector<RunTotals> ranks(p);
  std::vector<sim::TraceRecorder> traces(
      p, sim::TraceRecorder(setup.trace != nullptr && setup.trace->enabled()));

  world.run([&](net::Comm& comm) {
    const int me = comm.rank();
    sim::TraceRecorder& trace = traces[static_cast<std::size_t>(me)];
    RunTotals& out = ranks[static_cast<std::size_t>(me)];
    comm.set_trace(&trace);
    node::ComputeNode node(setup.node, comm.clock(), &trace,
                           "node" + std::to_string(me));
    node.set_faults(plan, me, &out.faults);
    Rank rank(comm, node, out);
    body(rank);
    rank.end_timed();
  });

  if (setup.trace != nullptr) {
    for (auto& t : traces) setup.trace->merge_from(std::move(t));
  }
  if (setup.message_log != nullptr) *setup.message_log = world.message_log();

  RunTotals total;
  for (const RunTotals& r : ranks) {
    total.run.seconds = std::max(total.run.seconds, r.run.seconds);
    total.run.cpu_busy_seconds += r.run.cpu_busy_seconds;
    total.run.fpga_busy_seconds += r.run.fpga_busy_seconds;
    total.run.cpu_flops += r.run.cpu_flops;
    total.run.fpga_flops += r.run.fpga_flops;
    total.run.bytes_on_network += r.run.bytes_on_network;
    total.run.coordination_events += r.run.coordination_events;
    for (const auto& [ph, os] : r.overlap) total.overlap[ph] += os;
    total.faults += r.faults;
  }
  total.run.total_flops = total.run.cpu_flops + total.run.fpga_flops;
  return total;
}

void hybrid_opmm_share(node::ComputeNode& node, const fpga::MatMulArray& mm,
                       Span2D<const double> c, Span2D<const double> d,
                       Span2D<double> e, long long b_f, bool nt, bool soft,
                       const char* label) {
  const auto rows = static_cast<long long>(e.rows());
  const auto cols = static_cast<long long>(e.cols());
  const auto inner = static_cast<long long>(c.cols());
  const long long b_p = rows - b_f;
  const long long k = mm.k();

  // Timing: stream the k-wide stripes; the FPGA pipelines behind the DRAM
  // stream while the CPU computes its own rows.
  for (long long s = 0; s < inner; s += k) {
    const long long ks = std::min(k, inner - s);
    if (b_f > 0) {
      node.dram_to_fpga(static_cast<std::uint64_t>((b_f * ks + ks * cols) * 8));
      node.fpga_submit(static_cast<double>(mm.cycles(b_f, ks, cols)), label);
    }
    if (b_p > 0) {
      node.cpu_compute(node::CpuKernel::Dgemm,
                       2.0 * static_cast<double>(b_p * ks * cols), label);
    }
  }
  // Functional compute (order-identical to the stripe stream).
  if (b_f > 0) {
    const auto c_f = c.block(0, 0, b_f, inner);
    const auto e_f = e.block(0, 0, b_f, cols);
    if (nt) {
      soft ? mm.multiply_accumulate_nt_soft(c_f, d, e_f)
           : mm.multiply_accumulate_nt(c_f, d, e_f);
    } else {
      soft ? mm.multiply_accumulate_soft(c_f, d, e_f)
           : mm.multiply_accumulate(c_f, d, e_f);
    }
    node.note_fpga_flops(2.0 * static_cast<double>(b_f * inner * cols));
  }
  if (b_p > 0) {
    const auto c_p = c.block(b_f, 0, b_p, inner);
    const auto e_p = e.block(b_f, 0, b_p, cols);
    nt ? linalg::gemm_nt(c_p, d, e_p) : linalg::gemm(c_p, d, e_p);
  }
}

int owner_of(long long u, long long v, int p) {
  return static_cast<int>(std::min(u, v) % p);
}

std::pair<long long, long long> worker_columns(long long b, int p, int root,
                                               int r) {
  const int workers = p - 1;
  const int w = r < root ? r : r - 1;  // index among the workers
  const long long base = b / workers;
  const long long rem = b % workers;
  const long long c0 = w * base + std::min<long long>(w, rem);
  return {c0, c0 + base + (w < rem ? 1 : 0)};
}

int make_tag(int chan, long long t, long long j) {
  RCS_CHECK_MSG(t < (1 << 9) && j < (1 << 18),
                "functional plane tag space exceeded (t=" << t << ", j=" << j
                                                          << ")");
  return static_cast<int>((t << 21) | (j << 3) | chan);
}

void fan_out(net::Comm& comm, bool dma,
             std::initializer_list<std::pair<int, Span2D<const double>>>
                 blocks) {
  for (int r = 0; r < comm.size(); ++r) {
    if (r == comm.rank()) continue;
    for (const auto& [tag, m] : blocks) {
      dma ? net::isend_matrix(comm, r, tag, m)
          : net::send_matrix(comm, r, tag, m);
    }
  }
}

OwnedBlocks::OwnedBlocks(const linalg::Matrix& a, long long b, int p, int me,
                         bool lower)
    : b_(b),
      nb_(static_cast<long long>(a.rows()) / b),
      p_(p),
      me_(me),
      lower_(lower) {
  for (long long u = 0; u < nb_; ++u) {
    for (long long v = 0; v <= (lower_ ? u : nb_ - 1); ++v) {
      if (owner_of(u, v, p_) == me_) {
        blocks_.emplace(std::make_pair(u, v),
                        linalg::Matrix::from_view(a.block(u * b, v * b, b, b)));
      }
    }
  }
}

linalg::Matrix& OwnedBlocks::operator()(long long u, long long v) {
  auto it = blocks_.find({u, v});
  RCS_CHECK_MSG(it != blocks_.end(), "rank " << me_ << " missing block (" << u
                                             << "," << v << ")");
  return it->second;
}

void OwnedBlocks::gather(net::Comm& comm, linalg::Matrix& out) {
  if (me_ != 0) {
    for (auto& [key, block] : blocks_) {
      net::send_matrix(comm, 0,
                       make_tag(kGather, 0, key.first * nb_ + key.second),
                       block.view());
    }
    return;
  }
  for (long long u = 0; u < nb_; ++u) {
    for (long long v = 0; v <= (lower_ ? u : nb_ - 1); ++v) {
      const int o = owner_of(u, v, p_);
      const linalg::Matrix block =
          o == 0 ? std::move((*this)(u, v))
                 : net::recv_matrix(comm, o,
                                    make_tag(kGather, 0, u * nb_ + v));
      linalg::copy(block.view(), out.block(u * b_, v * b_, b_, b_));
    }
  }
}

}  // namespace rcs::core
