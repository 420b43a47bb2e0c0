#pragma once
// Shared vocabulary of the hybrid designs: design variants, communication
// fan-out conventions, and run reports.

#include <cstdint>
#include <string>

#include "sim/engine.hpp"

namespace rcs::core {

/// The three design variants compared in Section 6.2.
enum class DesignMode {
  Hybrid,         // processors + FPGAs (the paper's contribution)
  ProcessorOnly,  // baseline: processors only
  FpgaOnly,       // baseline: FPGAs do all accelerated tasks
};

const char* to_string(DesignMode m);

/// How block-stripe distribution from the panel node is charged.
///   PaperSingle — Eq. 5 solves l with one T_comm per stripe regardless of
///                 destination count; the run hands its sends to the NIC
///                 (isend), so the sending CPU pays setup only while the NIC
///                 serializes the p - 1 transfers.
///   SerialAll   — the sending processor serializes one transfer per
///                 destination (what MiniMPI's CPU-driven sends do; §4.3's
///                 "computations cannot overlap with network communication"
///                 taken strictly).
enum class SendFanout { PaperSingle, SerialAll };

const char* to_string(SendFanout f);

/// Outcome of one simulated application run (either plane).
struct RunReport {
  std::string design;            // e.g. "LU/hybrid"
  sim::SimTime seconds = 0.0;    // end-to-end simulated latency
  double total_flops = 0.0;      // semantic flop count of the application
  double cpu_busy_seconds = 0.0;   // summed over nodes
  double fpga_busy_seconds = 0.0;  // summed over nodes
  double cpu_flops = 0.0;        // flops executed by processors
  double fpga_flops = 0.0;       // flops executed by FPGAs
  std::uint64_t bytes_on_network = 0;
  std::uint64_t coordination_events = 0;

  /// Sustained application GFLOPS (the paper's headline metric).
  double gflops() const {
    return seconds > 0.0 ? total_flops / seconds / 1e9 : 0.0;
  }
};

}  // namespace rcs::core
