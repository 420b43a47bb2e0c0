#pragma once
// What the functional planes of the hybrid designs share: one rank harness
// that runs an application's per-rank body over a MiniMPI world and folds
// the ranks into one RunReport, the §5.1 hybrid opMM share that LU,
// Cholesky and the [22] multiply all compute, and the pieces of the
// master-worker data plane around it (block ownership, worker column
// shares, message tags, stripe fan-out, the untimed rank-0 gather).
//
// A run given no input matrix is cost-only: the same rank bodies send the
// same messages and make the same charges, but every block is a shape-only
// view (common/span2d.hpp), every message carries only its matrix header
// while it is charged its whole size, and no kernel runs. So clocks, bytes
// and traces equal a full run's, and the paper's operating points run
// without holding any matrix.

#include <functional>
#include <initializer_list>
#include <map>
#include <utility>

#include "common/span2d.hpp"
#include "core/design.hpp"
#include "linalg/matrix.hpp"
#include "net/minimpi.hpp"
#include "node/compute_node.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

namespace rcs::fpga {
class MatMulArray;
}

namespace rcs::linalg {
class PackedA;
class PackedB;
}  // namespace rcs::linalg

namespace rcs::core {

/// How to set up one harnessed run.
struct RunSetup {
  int p = 1;
  net::NetworkParams network;
  node::NodeParams node;  // every rank's ComputeNode
  /// Fault plan (must outlive the run); null or empty is the fault-free
  /// path.
  const sim::FaultPlan* faults = nullptr;
  /// When non-null and enabled, receives every rank's node spans and comm
  /// events, merged in rank order.
  sim::TraceRecorder* trace = nullptr;
};

/// A run's outcome: the RunReport (seconds = the latest rank's finish,
/// everything else summed over ranks), plus fault accounting summed over
/// ranks. The design name is the caller's.
struct RunTotals {
  RunReport run;
  sim::FaultStats faults;
};

/// One rank of a harnessed run, as the application's body sees it.
class Rank {
 public:
  Rank(net::Comm& comm, node::ComputeNode& node, RunTotals& out);

  net::Comm& comm;
  node::ComputeNode& node;  // on the rank's clock, trace and fault plan
  sim::FaultStats& faults;  // this rank's injection/recovery accounting

  /// End the timed part of the run: record this rank's simulated stats and
  /// detach its comm trace, so an untimed gather that follows stays out of
  /// the report and the analyzed timeline. The harness calls it after the
  /// body when the body did not.
  void end_timed();

 private:
  RunTotals& out_;
  bool timed_ = true;
};

/// Run `body` on every rank of a fresh MiniMPI world and fold the ranks.
RunTotals run_ranks(const RunSetup& setup,
                    const std::function<void(Rank&)>& body);

/// The operands of an opMM share packed once for the native-FP kernels:
/// the C stripe's FPGA rows [0, b_f) and CPU rows [b_f, b), and the D share
/// as the share multiplies it (packed transposed for C x D^T). A worker
/// whose shares read the same stripe passes the same packs to each.
struct SharePacks {
  const linalg::PackedA* c_fpga = nullptr;  // unread under soft FP
  const linalg::PackedA* c_cpu = nullptr;
  const linalg::PackedB* d = nullptr;
};

/// One worker's hybrid opMM share (§5.1, Eq. 4): E += C x D, or C x D^T
/// when `nt`, with the first b_f rows of E on the FPGA (MatMulArray; the
/// bit-accurate cores when `soft`) and the rest on the CPU (gemm /
/// gemm_nt). First charges the share's k-wide stripe stream to `node`: per
/// stripe, the FPGA rows' DRAM transfer and start signal, then the CPU
/// rows' dgemm. The FPGA's completion (fpga_wait) is the caller's, which
/// may batch several shares behind one handshake. Shape-only operands
/// (a cost-only run) are charged and not computed. With `packs` the
/// native kernels read them instead of packing `c` and `d` themselves;
/// the charges and the bits are the same either way.
void hybrid_opmm_share(node::ComputeNode& node, const fpga::MatMulArray& mm,
                       Span2D<const double> c, Span2D<const double> d,
                       Span2D<double> e, long long b_f, bool nt, bool soft,
                       const char* label, const SharePacks* packs = nullptr);

/// Rank owning block (u, v) under the paper's frame distribution:
/// min(u, v) mod p, so iteration t's whole panel lives on rank t mod p.
int owner_of(long long u, long long v, int p);

/// Column range [c0, c1) of a b-column result that rank r computes when the
/// p - 1 ranks other than `root` split the columns as evenly as possible,
/// in rank order.
std::pair<long long, long long> worker_columns(long long b, int p, int root,
                                               int r);

/// Message channels of the panel-fed designs (3 bits of a tag).
enum StripeChan : int { kCStripe = 1, kDStripe = 2, kEShare = 3, kGather = 4 };

/// Message tag: iteration t (9 bits), sequence number j within the
/// iteration (18 bits), channel (3 bits).
int make_tag(int chan, long long t, long long j);

/// Most blocks per side (n/b) a functional or cost-only run can address:
/// the iteration must fit make_tag's 9 bits and the tasks of one iteration
/// its 18.
inline constexpr long long kMaxBlocksPerSide = 512;

/// Throws unless `nb` blocks per side fit the tag space, so a run that
/// would outgrow it fails at entry rather than part-way through.
void check_tag_space(long long nb);

/// Send `blocks` (tag, packed contents) from this rank to every other
/// rank, in rank order and in list order per destination. Every destination
/// shares the one payload; each transfer is charged. With `dma` the
/// transfers ride the NIC (isend: the CPU pays only setup while the
/// RapidArray engines serialize); otherwise the CPU serializes every one
/// (§4.3).
void fan_out(net::Comm& comm, bool dma,
             std::initializer_list<std::pair<int, net::Payload>> blocks);

/// The rows x cols block a rank computes into: `store`, zero-filled, when
/// the run carries data; otherwise `store` stays empty and the view is
/// shape-only.
Span2D<double> work_block(linalg::Matrix& store, long long rows,
                          long long cols, bool data);

/// The b x b blocks one rank owns under the frame distribution (owner_of),
/// copied out of the n x n input without charge, as in the paper's
/// experiments; an empty input (a cost-only run) copies nothing and every
/// block is shape-only. `lower` keeps only the lower triangle u >= v.
class OwnedBlocks {
 public:
  OwnedBlocks(const linalg::Matrix& a, long long n, long long b, int p,
              int me, bool lower);

  Span2D<double> operator()(long long u, long long v);

  /// Untimed gather: rank 0 copies every owned block of every rank into
  /// `out` (its own straight from its store, the others from the messages
  /// they send it). Only rank 0 writes `out`. A cost-only run has nothing
  /// to gather.
  void gather(net::Comm& comm, linalg::Matrix& out);

 private:
  bool data_;
  long long b_;
  long long nb_;
  int p_;
  int me_;
  bool lower_;
  std::map<std::pair<long long, long long>, linalg::Matrix> blocks_;
};

}  // namespace rcs::core
