#pragma once
// Network-contention analysis: replay the sends of a traced run through
// explicit link models and measure how much queueing the virtual-time
// accounting ignored.
//
// MiniMPI charges transfers to the *sender's* clock (or NIC), which encodes
// the paper's assumption of a non-blocking crossbar (Section 3: "a
// non-blocking crossbar switching fabric which provides two 2 GB/s links to
// each node"). This module checks that assumption after the fact: take the
// Send/NicSend events of a functional run's trace, push them through
// per-link BandwidthLink timelines, and report the added delay each link
// model would have produced. Near-zero added delay under PerNodeLinks
// confirms the design never oversubscribes a node's links; large delays
// under SharedBus show why a bus-based system would need a different
// partition.

#include <span>
#include <string>

#include "net/minimpi.hpp"
#include "sim/trace.hpp"

namespace rcs::net {

/// Topology models for the replay.
enum class LinkModel {
  Crossbar,      // one link per ordered (src, dst) pair — contention-free
                 // between distinct pairs, as the paper assumes
  PerNodeLinks,  // one egress + one ingress link per node at B_n each
                 // (the XD1's "two 2 GB/s links per node")
  SharedBus,     // a single B_n bus for everyone — the stress case
};

const char* to_string(LinkModel m);

/// Outcome of replaying a run's sends under one link model.
struct ContentionReport {
  LinkModel model{};
  std::size_t messages = 0;            // Send and NicSend events replayed
  double original_last_arrival = 0.0;  // from the trace
  double replayed_last_arrival = 0.0;  // with explicit link queueing
  double max_added_delay = 0.0;        // worst per-message queueing
  double total_added_delay = 0.0;
  double busiest_link_utilization = 0.0;  // busy / replayed_last_arrival
  std::string busiest_link;

  /// Relative slowdown explicit queueing would cause (1.0 = assumption
  /// holds exactly).
  double slowdown() const {
    return original_last_arrival > 0.0
               ? replayed_last_arrival / original_last_arrival
               : 1.0;
  }
};

/// Replay the Send and NicSend events among `events` (a traced run's
/// sim::TraceRecorder::comm_events()) under `model`, in order of departure;
/// sends that depart together keep their trace order. Receives are skipped:
/// every message is charged once, on its sender's event.
ContentionReport analyze_contention(std::span<const sim::CommEvent> events,
                                    const NetworkParams& net, int world_size,
                                    LinkModel model);

}  // namespace rcs::net
