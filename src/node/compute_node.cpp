#include "node/compute_node.hpp"

#include "common/error.hpp"

namespace rcs::node {

ComputeNode::ComputeNode(NodeParams params, net::VirtualClock& clock,
                         sim::TraceRecorder* trace, const std::string& name)
    : params_(std::move(params)),
      clock_(clock),
      trace_(trace != nullptr && trace->enabled() ? trace : nullptr) {
  if (trace_ == nullptr) return;
  cpu_id_ = trace_->intern(name + ".cpu");
  dram_id_ = trace_->intern(name + ".dram");
  fpga_id_ = trace_->intern(name + ".fpga");
  fpga_wait_id_ = trace_->intern(name + ".fpga_wait");
  dram_label_ = trace_->intern("dram->fpga");
  fpga_wait_label_ = trace_->intern("fpga.wait");
}

void ComputeNode::set_faults(const sim::FaultPlan* plan, int rank,
                             sim::FaultStats* stats) {
  fault_plan_ = plan;
  fault_rank_ = rank;
  fault_stats_ = stats;
}

sim::SimTime ComputeNode::stretched(sim::SimTime start, sim::SimTime dt,
                                    bool fpga) {
  if (fault_plan_ == nullptr) return dt;
  const sim::SimTime out =
      fault_plan_->stretch_compute(fault_rank_, start, dt, fpga);
  if (out > dt && fault_stats_ != nullptr) {
    fault_stats_->slowdown_hits += 1;
    fault_stats_->slowdown_added_s += out - dt;
  }
  return out;
}

void ComputeNode::cpu_compute(CpuKernel kernel, double flops,
                              const char* label) {
  const sim::SimTime start = clock_.now();
  sim::SimTime dt = params_.gpp.seconds_for(kernel, flops);
  const double gamma = params_.dram_contention_factor;
  if (gamma > 0.0 && start < fpga_busy_until_) {
    RCS_CHECK_MSG(gamma < 1.0, "contention factor must be < 1");
    // The portion overlapping the FPGA's activity runs derated.
    const sim::SimTime window = fpga_busy_until_ - start;
    const sim::SimTime derated_full = dt / (1.0 - gamma);
    if (derated_full <= window) {
      dt = derated_full;  // finishes entirely inside the busy window
    } else {
      const sim::SimTime work_in_window = window * (1.0 - gamma);
      dt = window + (dt - work_in_window);  // remainder at full rate
    }
  }
  dt = stretched(start, dt, /*fpga=*/false);
  clock_.advance(dt);
  cpu_busy_total_ += dt;
  cpu_flops_total_ += flops;
  if (trace_ != nullptr)
    trace_->add(cpu_id_, start, clock_.now(), trace_->intern(label));
}

void ComputeNode::dram_to_fpga(std::uint64_t bytes) {
  const sim::SimTime start = clock_.now();
  // The processor drives the DRAM stream, so a CPU slowdown stretches it.
  const sim::SimTime dt = stretched(
      start, static_cast<double>(bytes) / params_.fpga.dram_bytes_per_s,
      /*fpga=*/false);
  clock_.advance(dt);
  cpu_busy_total_ += dt;
  if (trace_ != nullptr)
    trace_->add(dram_id_, start, clock_.now(), dram_label_);
}

sim::SimTime ComputeNode::fpga_submit(double cycles, const char* label) {
  RCS_CHECK_MSG(cycles >= 0.0, "negative FPGA cycle count");
  // Start signal: processor writes the FPGA's control register.
  clock_.advance(params_.coordination_latency_s);
  ++coordination_events_;
  ++pending_submissions_;
  const sim::SimTime start =
      clock_.now() > fpga_busy_until_ ? clock_.now() : fpga_busy_until_;
  const sim::SimTime dt =
      stretched(start, params_.fpga.seconds_for_cycles(cycles), /*fpga=*/true);
  fpga_busy_until_ = start + dt;
  fpga_busy_total_ += dt;
  if (trace_ != nullptr)
    trace_->add(fpga_id_, start, fpga_busy_until_, trace_->intern(label));
  return fpga_busy_until_;
}

void ComputeNode::fpga_wait() {
  // Completion notification: processor polls the FPGA's status register.
  clock_.advance(params_.coordination_latency_s);
  ++coordination_events_;
  const sim::SimTime start = clock_.now();
  clock_.advance_to(fpga_busy_until_);
  // Exposed FPGA time: the processor stalled here until the pipeline
  // drained. The fpga_submit span shows the device's full busy interval;
  // this one shows the part the CPU could not hide behind its own work —
  // the "FPGA compute" bucket of the critical-path analyzer.
  if (trace_ != nullptr && clock_.now() > start) {
    trace_->add(fpga_wait_id_, start, clock_.now(), fpga_wait_label_);
  }
  pending_submissions_ = 0;
}

void ComputeNode::read_fpga_results(const char* what) const {
  RCS_CHECK_MSG(fpga_results_visible(),
                "§4.4 coordination violation: processor reading '"
                    << what << "' before the FPGA signalled completion");
}

}  // namespace rcs::node
