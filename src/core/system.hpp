#pragma once
// SystemParams — the paper's characterization of a reconfigurable computing
// system (§4.1): p nodes, each with one processor (O_p x F_p sustained per
// kernel), one FPGA (O_f, F_f per configured design, B_d to node DRAM), and
// a B_n-byte/s interconnect between any two nodes. b_w = 8 bytes throughout
// (double precision).

#include "fpga/device.hpp"
#include "net/minimpi.hpp"
#include "node/compute_node.hpp"
#include "node/gpp.hpp"

namespace rcs::core {

/// Word width in bytes (double precision, §4.1).
constexpr double kWordBytes = 8.0;

/// Full description of a reconfigurable computing system.
struct SystemParams {
  std::string name;
  int p = 6;  // number of nodes
  node::GppModel gpp{1e9};
  fpga::DeviceConfig mm_fpga;  // FPGA as configured with the matmul array
  fpga::DeviceConfig fw_fpga;  // FPGA as configured with the FW kernel
  net::NetworkParams network;
  sim::SimTime coordination_latency_s = 0.0;
  /// See node::NodeParams::dram_contention_factor (0 = paper assumption).
  double dram_contention_factor = 0.0;

  /// Node configuration for the LU / matrix-multiply designs.
  node::NodeParams node_params_mm() const {
    return node::NodeParams{gpp, mm_fpga, coordination_latency_s,
                            dram_contention_factor};
  }
  /// Node configuration for the Floyd–Warshall design.
  node::NodeParams node_params_fw() const {
    return node::NodeParams{gpp, fw_fpga, coordination_latency_s,
                            dram_contention_factor};
  }

  /// The paper's testbed: one Cray XD1 chassis — 6 nodes, 2.2 GHz Opteron +
  /// XC2VP50 per node, 2 GB/s inter-node links (Section 3 / 6.1).
  static SystemParams cray_xd1();

  /// Cray XT3 with DRC Virtex-4 modules (Section 3) — used for
  /// capacity-planning prediction, not measured in the paper.
  static SystemParams cray_xt3_drc();

  /// SGI RASC RC100-style system (Section 3) — capacity planning only.
  static SystemParams sgi_rasc();

  /// A scaled XD1 with a different node count (what-if studies).
  SystemParams with_nodes(int nodes) const {
    SystemParams s = *this;
    s.p = nodes;
    return s;
  }
};

}  // namespace rcs::core
