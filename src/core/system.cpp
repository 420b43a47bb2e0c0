#include "core/system.hpp"

namespace rcs::core {

SystemParams SystemParams::cray_xd1() {
  SystemParams s;
  s.name = "Cray XD1 (1 chassis)";
  s.p = 6;
  s.gpp = node::GppModel::opteron_2p2ghz();
  s.mm_fpga = fpga::DeviceConfig::xc2vp50_matmul();
  s.fw_fpga = fpga::DeviceConfig::xc2vp50_floyd_warshall();
  s.network.bytes_per_s = 2e9;  // B_n = 2 GB/s
  s.network.latency_s = 0.0;    // the paper neglects message latency
  s.coordination_latency_s = 0.0;
  return s;
}

SystemParams SystemParams::cray_xt3_drc() {
  SystemParams s;
  s.name = "Cray XT3 + DRC Virtex-4";
  s.p = 6;
  // Dual-core Opteron 2.4 GHz era: modestly faster host BLAS.
  node::GppModel gpp(1.2e9);
  gpp.set_rate(node::CpuKernel::Dgemm, 4.4e9);
  gpp.set_rate(node::CpuKernel::Dgetrf, 4.1e9);
  gpp.set_rate(node::CpuKernel::Dtrsm, 4.2e9);
  gpp.set_rate(node::CpuKernel::FwBlock, 220e6);
  s.gpp = gpp;
  s.mm_fpga = fpga::DeviceConfig::drc_virtex4_matmul();
  s.fw_fpga = fpga::DeviceConfig::drc_virtex4_matmul();
  s.fw_fpga.name = "DRC-Virtex4/floyd-warshall";
  s.fw_fpga.clock_hz = 160e6;
  s.fw_fpga.dram_bytes_per_s = 6.4e9;
  s.network.bytes_per_s = 4e9;  // SeaStar interconnect
  return s;
}

SystemParams SystemParams::sgi_rasc() {
  SystemParams s;
  s.name = "SGI RASC RC100";
  s.p = 4;
  node::GppModel gpp(1.1e9);
  gpp.set_rate(node::CpuKernel::Dgemm, 4.1e9);
  gpp.set_rate(node::CpuKernel::Dgetrf, 3.8e9);
  gpp.set_rate(node::CpuKernel::Dtrsm, 3.9e9);
  gpp.set_rate(node::CpuKernel::FwBlock, 200e6);
  s.gpp = gpp;
  fpga::DeviceConfig v4;
  v4.name = "Virtex4-LX200/matmul";
  v4.pe_count = 16;
  v4.clock_hz = 200e6;
  v4.sram_bytes = 16ull << 20;
  v4.bram_bytes = 756ull << 10;
  // RC100 blades connect directly to shared global memory (NUMAlink).
  v4.dram_bytes_per_s = 3.2e9;
  s.mm_fpga = v4;
  s.fw_fpga = v4;
  s.fw_fpga.name = "Virtex4-LX200/floyd-warshall";
  s.fw_fpga.clock_hz = 180e6;
  s.network.bytes_per_s = 6.4e9;  // NUMAlink 4
  return s;
}

}  // namespace rcs::core
