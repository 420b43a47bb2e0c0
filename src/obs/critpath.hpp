#pragma once
// Critical-path analysis and makespan attribution over a simulated run.
//
// The paper's bound T = max(T_tp, T_tf) says what the makespan should be;
// this analyzer says why the measured makespan is what it is. Input is a
// Timeline: every clock-occupying interval on every rank (compute spans,
// exposed FPGA waits, transfer serialization and stalls) plus the wire
// intervals of every message. Intervals name their phase by an index into
// the Timeline's label table, so analysis makes no per-interval string
// copies or comparisons. Output is an Analysis:
//
//   * per-rank attribution — the interval [0, makespan] of each rank
//     partitioned into buckets (CPU compute, exposed FPGA time, visible
//     transfer, fault recovery, wait/idle) that sum to the makespan, plus a
//     hidden-transfer overlay (wire seconds that elapsed behind the rank's
//     own compute — overlapped, so not part of the partition);
//   * per-phase attribution — the same buckets keyed by phase label,
//     summed across ranks;
//   * the critical path — a backward walk from the makespan-defining finish
//     along binding constraints (last interval to end; a receive whose
//     clock was bound by a message arrival jumps over the wire to the
//     sender at its departure time; NIC-serialized sends chain through the
//     sender's wire log), yielding a chronological chain of segments whose
//     non-idle length is the critical-path time;
//   * cluster rollups — per-rank utilization, max-over-mean imbalance,
//     Jain fairness, top-k critical-path segments;
//   * structural invariants — critical path <= makespan <= total
//     resource-seconds, and per-rank buckets summing to the makespan —
//     checked here; critpath_test and bench/scaling_sweep assert them on
//     real runs.
//
// This header is pure data + algorithm: obs stays dependency-free, so the
// conversion from sim::TraceRecorder / MiniMPI lives in core (analysis.cpp).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace rcs::obs::cp {

/// Attribution buckets partitioning a rank's timeline.
enum class Bucket : std::uint8_t {
  Cpu,              // CPU compute (kernel flops)
  Fpga,             // exposed FPGA time (CPU blocked in fpga_wait)
  TransferVisible,  // data movement the clock had to wait for
  FaultRecovery,    // detection/repair/reissue work
  WaitIdle,         // derived: gaps + idle tail (never set on an Interval)
};

/// What kind of operation produced an interval — receives are special on
/// the critical-path walk (arrival-bound receives jump to the sender).
enum class Op : std::uint8_t { Compute, Send, Recv };

/// One clock-occupying interval on a rank's timeline. Intervals on one rank
/// must not overlap (they are [clock-before, clock-after] of sequential
/// operations). Zero-length Recv intervals are meaningful: they carry the
/// wire interval of a fully hidden transfer.
struct Interval {
  int rank = -1;
  Bucket bucket = Bucket::Cpu;
  Op op = Op::Compute;
  double start = 0.0;
  double end = 0.0;
  std::uint32_t label = 0;  // Timeline::labels index ("opMM", "send", ...)
  int peer = -1;            // message peer for transfer intervals
  double depart = -1.0;     // wire interval (transfer intervals only)
  double arrival = -1.0;
};

/// One message transfer on the src->dst link.
struct Wire {
  int src = -1;
  int dst = -1;
  double depart = 0.0;
  double arrival = 0.0;
  std::uint64_t bytes = 0;
};

/// Everything the analyzer needs about one run.
struct Timeline {
  int ranks = 0;
  double makespan = 0.0;
  std::vector<Interval> intervals;
  std::vector<Wire> wires;
  /// Distinct phase names; Interval::label indexes this table.
  std::vector<std::string> labels;
  /// Resource-busy seconds that run concurrently with the rank timelines
  /// (the FPGA pipelines' true busy time); added into resource_seconds_s.
  double concurrent_fpga_s = 0.0;

  /// The index of `name` in `labels`, appended on first use (a linear
  /// search: the table holds a few names).
  std::uint32_t intern_label(std::string_view name);
};

/// Makespan attribution for one rank: the buckets partition [0, makespan].
struct RankAttribution {
  int rank = 0;
  double finish_s = 0.0;  // end of this rank's last interval
  double cpu_s = 0.0;
  double fpga_s = 0.0;
  double transfer_visible_s = 0.0;
  double fault_recovery_s = 0.0;
  double wait_idle_s = 0.0;
  /// Wire seconds of this rank's receives that elapsed behind its own
  /// compute (overlapped transfer) — an overlay, not part of the partition.
  double transfer_hidden_s = 0.0;

  /// Seconds this rank's CPU/FPGA were occupied (everything but idle).
  double busy_s() const {
    return cpu_s + fpga_s + transfer_visible_s + fault_recovery_s;
  }
  double utilization = 0.0;  // busy_s() / makespan
};

/// Bucket attribution for one phase label, summed across ranks.
struct PhaseAttribution {
  std::string label;
  double cpu_s = 0.0;
  double fpga_s = 0.0;
  double transfer_visible_s = 0.0;
  double transfer_hidden_s = 0.0;
  double fault_recovery_s = 0.0;
  /// Wire seconds of this phase's receives, hidden or not: the transfer
  /// time transfer_hidden_s is a part of. Not part of write_json.
  double transfer_wire_s = 0.0;

  double total_s() const {
    return cpu_s + fpga_s + transfer_visible_s + fault_recovery_s;
  }
};

/// One step of the critical path, in chronological order after the walk.
struct Segment {
  std::string kind;  // "cpu", "fpga", "transfer", "recovery", "wire", "idle"
  int rank = -1;     // resident rank (the sender for "wire" segments)
  int peer = -1;     // receiver for "wire" segments
  std::string label;
  double start = 0.0;
  double end = 0.0;

  double duration() const { return end - start; }
};

/// The full analysis of one run.
struct Analysis {
  int ranks = 0;
  double makespan_s = 0.0;
  /// Non-idle length of the critical-path walk. cp + cp_idle = makespan.
  double critical_path_s = 0.0;
  double cp_idle_s = 0.0;  // unattributable gaps met on the walk
  /// Total resource-seconds consumed: rank busy seconds (the paper's CPU
  /// drives transfers, so visible transfer counts) + concurrent FPGA busy
  /// seconds + wire seconds of every message.
  double resource_seconds_s = 0.0;

  std::vector<RankAttribution> per_rank;       // by rank ascending
  std::vector<PhaseAttribution> per_phase;     // by label ascending
  std::vector<Segment> critical_path;          // chronological

  // Cluster rollups over per-rank busy seconds.
  double mean_utilization = 0.0;
  double imbalance_max_over_mean = 0.0;  // 1.0 = perfectly balanced
  double jain_fairness = 0.0;            // (sum u)^2 / (p * sum u^2); 1 = fair

  // Structural invariants (critpath_test and scaling_sweep assert them).
  bool cp_le_makespan = true;
  bool makespan_le_resource_seconds = true;
  bool buckets_sum_to_makespan = true;
  double max_bucket_sum_rel_err = 0.0;  // worst per-rank partition error

  bool invariants_hold() const {
    return cp_le_makespan && makespan_le_resource_seconds &&
           buckets_sum_to_makespan;
  }

  /// The k longest critical-path segments (duration descending; ties by
  /// start then rank, so the order is deterministic).
  std::vector<Segment> top_segments(std::size_t k) const;

  /// JSON object; the opening brace lands where the stream already is,
  /// continuation lines get `indent` spaces. Fixed 9-significant-digit
  /// formatting: byte-identical output for byte-identical analyses.
  void write_json(std::ostream& os, int indent = 0) const;

  /// Human-readable summary (attribution table + top critical-path rows).
  void print(std::ostream& os) const;
};

/// Run the analysis. The timeline's intervals may be in any order; per-rank
/// they must be non-overlapping, and each label must index `labels`
/// (std::out_of_range otherwise). Returns an empty Analysis (invariants
/// trivially true) when makespan <= 0 or ranks <= 0.
Analysis analyze(const Timeline& timeline);

}  // namespace rcs::obs::cp
