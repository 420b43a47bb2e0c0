#pragma once
// ComputeNode — the per-node hardware/software coordination layer of §4.4.
//
// A node owns a GPP model, an FPGA device, and the DRAM path between them.
// All timing flows into the node's VirtualClock (shared with its MiniMPI
// Comm, so communication and computation interleave on one timeline):
//
//   * cpu_compute(...)   — charges the CPU for `flops` of a kernel class.
//   * dram_to_fpga(...)  — charges the CPU for streaming input operands to
//                          the FPGA (Eq. 1: the processor cannot compute
//                          until the transfer completes).
//   * fpga_submit(...)   — the processor's "start" signal: queues `cycles`
//                          of FPGA work; the FPGA runs concurrently with the
//                          CPU (its completion horizon is tracked
//                          separately) and back-to-back submissions queue.
//   * fpga_wait()        — the "done" notification: advances the CPU clock
//                          to the FPGA's completion horizon.
//
// §4.4's memory-access coordination (processor and FPGA write disjoint DRAM
// regions; reads need the other side's permission) is enforced as a
// "results-visibility" protocol: fpga_results_visible() is only true after
// fpga_wait(); read_fpga_results() throws when called before the handshake.
// Coordination events (start signals, completion checks) are counted so the
// designs can report the coordination frequency the paper derives.

#include <cstdint>
#include <string>

#include "fpga/device.hpp"
#include "net/minimpi.hpp"
#include "node/gpp.hpp"
#include "sim/trace.hpp"

namespace rcs::node {

/// Static configuration of one compute node.
struct NodeParams {
  GppModel gpp;
  fpga::DeviceConfig fpga;
  /// Per-coordination-event latency (processor checking/raising an FPGA
  /// status register). The paper argues this is negligible; keep it
  /// parameterizable so the claim can be tested.
  sim::SimTime coordination_latency_s = 0.0;
  /// Memory-bus contention: while the FPGA is busy (streaming its staged
  /// operands and writing results), processor compute runs at a rate
  /// scaled by (1 - factor). The paper's model assumes 0 (the XD1 FPGA
  /// works out of its own SRAM); the knob quantifies systems where the
  /// accelerator shares the DRAM path.
  double dram_contention_factor = 0.0;
};

class ComputeNode {
 public:
  /// `clock` is the rank's virtual clock (shared with its Comm); `trace`
  /// may be null, and a recorder that is disabled when the node is built
  /// is never written. `name` prefixes trace resources ("node3.cpu", ...).
  ComputeNode(NodeParams params, net::VirtualClock& clock,
              sim::TraceRecorder* trace, const std::string& name);

  const NodeParams& params() const { return params_; }
  const fpga::DeviceConfig& fpga_device() const { return params_.fpga; }
  const GppModel& gpp() const { return params_.gpp; }

  /// Charge `flops` of `kernel` work to the processor.
  void cpu_compute(CpuKernel kernel, double flops, const char* label);

  /// Charge the processor for moving `bytes` from DRAM to the FPGA at B_d.
  void dram_to_fpga(std::uint64_t bytes);

  /// Signal the FPGA to start `cycles` of work. Returns the simulated
  /// completion time. Work queues behind any still-running FPGA task.
  sim::SimTime fpga_submit(double cycles, const char* label);

  /// Block the processor until all submitted FPGA work is done, making the
  /// FPGA's results visible to the processor (read permission of §4.4).
  void fpga_wait();

  /// True after fpga_wait() with no submissions since.
  bool fpga_results_visible() const { return pending_submissions_ == 0; }

  /// Assert the §4.4 read-permission protocol before the processor touches
  /// FPGA-produced data. Throws rcs::Error when results are not yet visible.
  void read_fpga_results(const char* what) const;

  /// Simulated time the FPGA becomes idle.
  sim::SimTime fpga_free_at() const { return fpga_busy_until_; }

  /// Accumulated busy seconds.
  sim::SimTime cpu_busy_total() const { return cpu_busy_total_; }
  sim::SimTime fpga_busy_total() const { return fpga_busy_total_; }

  /// Coordination events so far (start signals + completion notifications).
  std::uint64_t coordination_events() const { return coordination_events_; }

  /// Floating-point operations executed so far on each side.
  double cpu_flops_total() const { return cpu_flops_total_; }
  double fpga_flops_total() const { return fpga_flops_total_; }

  /// Record `flops` as executed on the FPGA (callers know the semantic flop
  /// count of a task; cycles alone cannot recover it for partial tiles).
  void note_fpga_flops(double flops) { fpga_flops_total_ += flops; }

  /// Subject this node to `plan`'s slowdown windows for rank `rank`: CPU and
  /// FPGA charges overlapping a window are stretched by its factor, with the
  /// added seconds accounted into `stats` (may be null). The plan must
  /// outlive the node; nullptr restores nominal rates.
  void set_faults(const sim::FaultPlan* plan, int rank,
                  sim::FaultStats* stats);

  net::VirtualClock& clock() { return clock_; }

 private:
  /// Apply the fault plan's slowdown windows to a charge of `dt` starting
  /// at `start` (identity without a plan).
  sim::SimTime stretched(sim::SimTime start, sim::SimTime dt, bool fpga);

  NodeParams params_;
  net::VirtualClock& clock_;
  sim::TraceRecorder* trace_;  // null unless recording
  // Trace resources "<name>.{cpu,dram,fpga,fpga_wait}" and the fixed
  // labels, interned once (valid when trace_ is set).
  sim::NameId cpu_id_ = 0, dram_id_ = 0, fpga_id_ = 0, fpga_wait_id_ = 0;
  sim::NameId dram_label_ = 0, fpga_wait_label_ = 0;
  const sim::FaultPlan* fault_plan_ = nullptr;
  int fault_rank_ = -1;
  sim::FaultStats* fault_stats_ = nullptr;
  sim::SimTime fpga_busy_until_ = 0.0;
  sim::SimTime cpu_busy_total_ = 0.0;
  sim::SimTime fpga_busy_total_ = 0.0;
  std::uint64_t coordination_events_ = 0;
  std::uint64_t pending_submissions_ = 0;
  double cpu_flops_total_ = 0.0;
  double fpga_flops_total_ = 0.0;
};

}  // namespace rcs::node
