#pragma once
// Simulated time and the resource primitives built on it:
//   * Timeline — an exclusive resource (a CPU, an FPGA, a DMA engine): jobs
//                reserve [start, end) intervals and serialize.
//   * BandwidthLink — a shared transfer resource that serializes transfers at
//                a fixed bytes/second rate plus a per-message latency.
//
// Simulated time is `SimTime`, in seconds (double).

#include <cstdint>

#include "common/error.hpp"

namespace rcs::sim {

/// Simulated time in seconds.
using SimTime = double;

/// An exclusive resource with a busy-until horizon. Used by the analytic
/// schedule simulator to model a node's processor, its FPGA, and its DMA
/// engine: work requested at `earliest` starts when the resource frees up.
class Timeline {
 public:
  /// Reserve `duration` seconds starting no earlier than `earliest`.
  /// Returns the completion time; start time is `completion - duration`.
  SimTime reserve(SimTime earliest, SimTime duration) {
    RCS_CHECK_MSG(duration >= 0.0, "negative duration " << duration);
    const SimTime start = earliest > busy_until_ ? earliest : busy_until_;
    busy_until_ = start + duration;
    busy_total_ += duration;
    return busy_until_;
  }

  /// Earliest time new work could start.
  SimTime free_at() const { return busy_until_; }

  /// Total busy seconds accumulated.
  SimTime busy_total() const { return busy_total_; }

  /// Reset to an idle resource at time zero.
  void reset() {
    busy_until_ = 0.0;
    busy_total_ = 0.0;
  }

 private:
  SimTime busy_until_ = 0.0;
  SimTime busy_total_ = 0.0;
};

/// A point-to-point or shared link that serializes transfers at `bytes_per_s`
/// with `latency_s` of per-message latency. Models both the XD1 RapidArray
/// interconnect (B_n) and the processor-FPGA DRAM path (B_d).
class BandwidthLink {
 public:
  BandwidthLink(double bytes_per_s, double latency_s = 0.0)
      : bytes_per_s_(bytes_per_s), latency_s_(latency_s) {
    RCS_CHECK_MSG(bytes_per_s > 0.0, "link bandwidth must be positive");
    RCS_CHECK_MSG(latency_s >= 0.0, "link latency must be non-negative");
  }

  /// Time to move `bytes` once the link is free (latency + serialization).
  SimTime transfer_time(std::uint64_t bytes) const {
    return latency_s_ + static_cast<double>(bytes) / bytes_per_s_;
  }

  /// Occupy the link for a `bytes` transfer submitted at `earliest`.
  /// Returns the completion time.
  SimTime transfer(SimTime earliest, std::uint64_t bytes) {
    return line_.reserve(earliest, transfer_time(bytes));
  }

  double bytes_per_s() const { return bytes_per_s_; }
  double latency_s() const { return latency_s_; }
  SimTime busy_total() const { return line_.busy_total(); }
  SimTime free_at() const { return line_.free_at(); }
  void reset() { line_.reset(); }

 private:
  double bytes_per_s_;
  double latency_s_;
  Timeline line_;
};

}  // namespace rcs::sim
