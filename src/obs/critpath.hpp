#pragma once
// The result of critical-path analysis and makespan attribution over a
// simulated run, with its JSON and text reports.
//
// The paper's bound T = max(T_tp, T_tf) says what the makespan should be;
// the analysis says why the measured makespan is what it is:
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
//     sender's wires), yielding a chronological chain of segments whose
//     non-idle length is the critical-path time;
//   * cluster rollups — per-rank utilization, max-over-mean imbalance,
//     Jain fairness, top-k critical-path segments;
//   * structural invariants — critical path <= makespan <= total
//     resource-seconds, and per-rank buckets summing to the makespan;
//     critpath_test and bench/scaling_sweep assert them on real runs.
//
// The analyzer that fills these types reads a sim::TraceRecorder, so it is
// core::analyze_run (core/analysis.hpp); obs stays dependency-free.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace rcs::obs::cp {

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
  /// start, then rank, then place on the path, so the order is
  /// deterministic). Selects over the path without copying it.
  std::vector<Segment> top_segments(std::size_t k) const;

  /// JSON object; the opening brace lands where the stream already is,
  /// continuation lines get `indent` spaces. Fixed 9-significant-digit
  /// formatting: byte-identical output for byte-identical analyses.
  void write_json(std::ostream& os, int indent = 0) const;

  /// Human-readable summary (attribution table + top critical-path rows).
  void print(std::ostream& os) const;
};

}  // namespace rcs::obs::cp
