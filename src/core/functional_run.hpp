#pragma once
// What the functional planes of the hybrid designs share: one rank harness
// that runs an application's per-rank body over a MiniMPI world and folds
// the ranks into one RunReport, the §5.1 hybrid opMM share that LU,
// Cholesky and the [22] multiply all compute, and the pieces of the
// master-worker data plane around it (block ownership, worker column
// shares, message tags, stripe fan-out, the untimed rank-0 gather).

#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

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

namespace rcs::core {

/// How to set up one harnessed run.
struct RunSetup {
  int p = 1;
  net::NetworkParams network;
  node::NodeParams node;  // every rank's ComputeNode
  /// Fault plan (must outlive the run); null or empty is the fault-free
  /// path.
  const sim::FaultPlan* faults = nullptr;
  int max_workers = 0;  // net::World::set_max_workers
  /// When non-null and enabled, receives every rank's node spans and comm
  /// events, merged in rank order.
  sim::TraceRecorder* trace = nullptr;
  /// When non-null, receives every message of the run.
  std::vector<net::MessageEvent>* message_log = nullptr;
};

/// A run's outcome: the RunReport (seconds = the latest rank's finish,
/// everything else summed over ranks), plus per-phase transfer overlap and
/// fault accounting summed over ranks. The design name is the caller's.
struct RunTotals {
  RunReport run;
  std::map<std::string, net::OverlapStats> overlap;
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

/// One worker's hybrid opMM share (§5.1, Eq. 4): E += C x D, or C x D^T
/// when `nt`, with the first b_f rows of E on the FPGA (MatMulArray; the
/// bit-accurate cores when `soft`) and the rest on the CPU (gemm /
/// gemm_nt). First charges the share's k-wide stripe stream to `node`: per
/// stripe, the FPGA rows' DRAM transfer and start signal, then the CPU
/// rows' dgemm. The FPGA's completion (fpga_wait) is the caller's, which
/// may batch several shares behind one handshake.
void hybrid_opmm_share(node::ComputeNode& node, const fpga::MatMulArray& mm,
                       Span2D<const double> c, Span2D<const double> d,
                       Span2D<double> e, long long b_f, bool nt, bool soft,
                       const char* label);

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

/// Send `blocks` (tag, contents) from this rank to every other rank, in
/// rank order and in list order per destination. With `dma` the transfers
/// ride the NIC (isend: the CPU pays only setup while the RapidArray
/// engines serialize); otherwise the CPU serializes every one (§4.3).
void fan_out(net::Comm& comm, bool dma,
             std::initializer_list<std::pair<int, Span2D<const double>>>
                 blocks);

/// The b x b blocks one rank owns under the frame distribution (owner_of),
/// copied out of the input without charge, as in the paper's experiments.
/// `lower` keeps only the lower triangle u >= v.
class OwnedBlocks {
 public:
  OwnedBlocks(const linalg::Matrix& a, long long b, int p, int me,
              bool lower);

  linalg::Matrix& operator()(long long u, long long v);

  /// Untimed gather: rank 0 places every owned block of every rank into
  /// `out` (its own by move); the other ranks send theirs. Only rank 0
  /// writes `out`.
  void gather(net::Comm& comm, linalg::Matrix& out);

 private:
  long long b_;
  long long nb_;
  int p_;
  int me_;
  bool lower_;
  std::map<std::pair<long long, long long>, linalg::Matrix> blocks_;
};

}  // namespace rcs::core
