// Tests for the node layer: the GPP sustained-rate model and the
// ComputeNode CPU/FPGA coordination semantics of §4.4 (transfer blocking,
// FPGA overlap, start/notify counting, read-permission protocol).

#include <gtest/gtest.h>

#include "net/minimpi.hpp"
#include "node/compute_node.hpp"
#include "node/gpp.hpp"
#include "sim/trace.hpp"

namespace node = rcs::node;
using node::CpuKernel;

namespace {

node::NodeParams test_params(double coord_latency = 0.0) {
  node::NodeParams p;
  p.gpp = node::GppModel(1e9);  // 1 GFLOP/s for easy numbers
  p.fpga = rcs::fpga::DeviceConfig::xc2vp50_matmul();
  p.fpga.clock_hz = 1e8;            // 10 ns per cycle
  p.fpga.dram_bytes_per_s = 1e9;    // 1 GB/s
  p.coordination_latency_s = coord_latency;
  return p;
}

TEST(GppModel, PerKernelRates) {
  node::GppModel m(1e9);
  m.set_rate(CpuKernel::Dgemm, 4e9);
  EXPECT_DOUBLE_EQ(m.sustained(CpuKernel::Dgemm), 4e9);
  EXPECT_DOUBLE_EQ(m.sustained(CpuKernel::Dtrsm), 1e9);  // default
  EXPECT_DOUBLE_EQ(m.seconds_for(CpuKernel::Dgemm, 8e9), 2.0);
}

TEST(GppModel, RejectsNonPositiveRates) {
  node::GppModel m(1e9);
  EXPECT_THROW(m.set_rate(CpuKernel::Dgemm, 0.0), rcs::Error);
  EXPECT_THROW(node::GppModel{-1.0}, rcs::Error);
  EXPECT_THROW(m.seconds_for(CpuKernel::Dgemm, -5.0), rcs::Error);
}

TEST(GppModel, OpteronMatchesPaperMeasurements) {
  const auto m = node::GppModel::opteron_2p2ghz();
  // dgemm: 3.9 GFLOPS (Section 6.1).
  EXPECT_DOUBLE_EQ(m.sustained(CpuKernel::Dgemm), 3.9e9);
  // Table 1: opLU on b = 3000 takes 4.9 s, opL/opU take 7.1 s.
  const double b3 = 3000.0 * 3000.0 * 3000.0;
  EXPECT_NEAR(m.seconds_for(CpuKernel::Dgetrf, (2.0 / 3.0) * b3), 4.9, 1e-9);
  EXPECT_NEAR(m.seconds_for(CpuKernel::Dtrsm, b3), 7.1, 1e-9);
  // Floyd–Warshall block rate: 190 MFLOPS.
  EXPECT_DOUBLE_EQ(m.sustained(CpuKernel::FwBlock), 190e6);
}

TEST(GppModel, KernelNames) {
  EXPECT_STREQ(node::to_string(CpuKernel::Dgemm), "dgemm");
  EXPECT_STREQ(node::to_string(CpuKernel::FwBlock), "fw-block");
}

TEST(ComputeNode, CpuComputeAdvancesClock) {
  rcs::net::VirtualClock clock;
  node::ComputeNode n(test_params(), clock, nullptr, "n0");
  n.cpu_compute(CpuKernel::Dgemm, 2e9, "work");
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  EXPECT_DOUBLE_EQ(n.cpu_busy_total(), 2.0);
  EXPECT_DOUBLE_EQ(n.cpu_flops_total(), 2e9);
}

TEST(ComputeNode, DramTransferBlocksCpu) {
  rcs::net::VirtualClock clock;
  node::ComputeNode n(test_params(), clock, nullptr, "n0");
  n.dram_to_fpga(500'000'000);  // 0.5 s at 1 GB/s
  EXPECT_DOUBLE_EQ(clock.now(), 0.5);  // Eq. 1: the CPU cannot compute
}

TEST(ComputeNode, FpgaRunsConcurrentlyWithCpu) {
  rcs::net::VirtualClock clock;
  node::ComputeNode n(test_params(), clock, nullptr, "n0");
  n.fpga_submit(3e8, "kernel");  // 3 s of FPGA work at 100 MHz
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);  // submission is asynchronous
  n.cpu_compute(CpuKernel::Dgemm, 1e9, "overlap");  // 1 s of CPU work
  EXPECT_DOUBLE_EQ(clock.now(), 1.0);
  n.fpga_wait();
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);  // CPU waited for the FPGA
  EXPECT_DOUBLE_EQ(n.fpga_busy_total(), 3.0);
}

TEST(ComputeNode, FpgaFasterThanCpuMeansNoWait) {
  rcs::net::VirtualClock clock;
  node::ComputeNode n(test_params(), clock, nullptr, "n0");
  n.fpga_submit(1e8, "kernel");                      // 1 s
  n.cpu_compute(CpuKernel::Dgemm, 5e9, "longer");    // 5 s
  n.fpga_wait();
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
}

TEST(ComputeNode, BackToBackSubmissionsQueue) {
  rcs::net::VirtualClock clock;
  node::ComputeNode n(test_params(), clock, nullptr, "n0");
  const double t1 = n.fpga_submit(1e8, "a");  // [0, 1)
  const double t2 = n.fpga_submit(1e8, "b");  // [1, 2)
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 2.0);
  n.fpga_wait();
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
}

TEST(ComputeNode, CoordinationEventsCounted) {
  rcs::net::VirtualClock clock;
  node::ComputeNode n(test_params(), clock, nullptr, "n0");
  n.fpga_submit(1e6, "a");
  n.fpga_submit(1e6, "b");
  n.fpga_wait();
  EXPECT_EQ(n.coordination_events(), 3u);  // 2 starts + 1 notification
}

TEST(ComputeNode, CoordinationLatencyCharged) {
  rcs::net::VirtualClock clock;
  node::ComputeNode n(test_params(1e-3), clock, nullptr, "n0");
  n.fpga_submit(0.0, "a");
  n.fpga_wait();
  EXPECT_DOUBLE_EQ(clock.now(), 2e-3);  // start + notify checks
}

TEST(ComputeNode, ReadPermissionProtocolEnforced) {
  rcs::net::VirtualClock clock;
  node::ComputeNode n(test_params(), clock, nullptr, "n0");
  EXPECT_TRUE(n.fpga_results_visible());  // nothing outstanding
  n.fpga_submit(1e6, "a");
  EXPECT_FALSE(n.fpga_results_visible());
  EXPECT_THROW(n.read_fpga_results("partial product"), rcs::Error);
  n.fpga_wait();
  EXPECT_TRUE(n.fpga_results_visible());
  EXPECT_NO_THROW(n.read_fpga_results("partial product"));
}

TEST(ComputeNode, DramContentionDeratesOverlappedCompute) {
  auto params = test_params();
  params.dram_contention_factor = 0.5;
  rcs::net::VirtualClock clock;
  node::ComputeNode n(params, clock, nullptr, "n0");
  n.fpga_submit(5e8, "long kernel");  // FPGA busy [0, 5)
  // 1 s of CPU work at half rate while the FPGA runs: takes 2 s.
  n.cpu_compute(CpuKernel::Dgemm, 1e9, "overlapped");
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  // 4 s of work: 3 s remain in the window (1.5 s of work done there), the
  // other 2.5 s of work runs at full rate after the FPGA finishes.
  n.cpu_compute(CpuKernel::Dgemm, 4e9, "straddles");
  EXPECT_DOUBLE_EQ(clock.now(), 2.0 + 3.0 + 2.5);
}

TEST(ComputeNode, NoContentionByDefault) {
  rcs::net::VirtualClock clock;
  node::ComputeNode n(test_params(), clock, nullptr, "n0");
  n.fpga_submit(5e8, "kernel");
  n.cpu_compute(CpuKernel::Dgemm, 1e9, "overlapped");
  EXPECT_DOUBLE_EQ(clock.now(), 1.0);  // full rate, paper assumption
}

TEST(ComputeNode, TraceRecordsSpans) {
  rcs::net::VirtualClock clock;
  rcs::sim::TraceRecorder trace(true);
  node::ComputeNode n(test_params(), clock, &trace, "n3");
  n.cpu_compute(CpuKernel::Dgemm, 1e9, "gemm");
  n.dram_to_fpga(1'000'000'000);
  n.fpga_submit(1e8, "mm");
  n.fpga_wait();
  auto busy = trace.busy_by_resource();
  EXPECT_DOUBLE_EQ(busy["n3.cpu"], 1.0);
  EXPECT_DOUBLE_EQ(busy["n3.dram"], 1.0);
  EXPECT_DOUBLE_EQ(busy["n3.fpga"], 1.0);
}

// A node on a disabled recorder neither records nor interns names, so a
// run without tracing pays nothing per charge.
TEST(ComputeNode, DisabledTraceIsNeverWritten) {
  rcs::net::VirtualClock clock;
  rcs::sim::TraceRecorder trace(false);
  node::ComputeNode n(test_params(), clock, &trace, "n3");
  n.cpu_compute(CpuKernel::Dgemm, 1e9, "gemm");
  n.dram_to_fpga(1'000'000'000);
  n.fpga_submit(1e8, "mm");
  n.fpga_wait();
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_TRUE(trace.names().empty());
}

TEST(ComputeNode, FpgaStartsAfterSubmissionTime) {
  rcs::net::VirtualClock clock;
  node::ComputeNode n(test_params(), clock, nullptr, "n0");
  n.cpu_compute(CpuKernel::Dgemm, 2e9, "first");  // clock at 2 s
  n.fpga_submit(1e8, "late");                     // runs [2, 3)
  n.fpga_wait();
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
}

TEST(ComputeNode, NegativeCyclesRejected) {
  rcs::net::VirtualClock clock;
  node::ComputeNode n(test_params(), clock, nullptr, "n0");
  EXPECT_THROW(n.fpga_submit(-1.0, "bad"), rcs::Error);
}

}  // namespace
