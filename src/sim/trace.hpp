#pragma once
// Execution-trace recording: per-resource busy intervals with labels, plus
// the communication events of a simulated run, exportable as CSV for
// Gantt-style inspection and as Chrome trace-event JSON.
//
// Records are fixed-size. Each recorder stores every distinct resource,
// label and phase name once, in its name table, and records refer to names
// by NameId. Hot callers intern their names once (ComputeNode's resources)
// or per event without allocating (a known name is a hash lookup); the
// exporters resolve ids when they write.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"

namespace rcs::sim {

/// Index of a name in one TraceRecorder's name table. Ids are local to the
/// recorder that interned them; merge_from remaps them.
using NameId = std::uint32_t;

/// One recorded busy interval on a named resource.
struct TraceSpan {
  NameId resource;  // e.g. "node2.cpu", "node2.fpga", "net.0->3"
  NameId label;     // e.g. "opMM", "bcast D_tt"
  SimTime start;
  SimTime end;
};

/// One communication operation as seen by the rank that executed it —
/// recorded by net::Comm when a recorder is attached (Comm::set_trace).
/// Kept separate from TraceSpans so comm events never pollute
/// busy_by_label() (whose labels are the drift reports' phase names): the
/// critical-path analyzer consumes both streams.
struct CommEvent {
  enum class Kind : std::uint8_t {
    Send,     // blocking send: [t0, t1] occupies the sender's CPU
    NicSend,  // isend: [t0, t1] is the CPU setup; the NIC drives the wire
    Recv,     // receive: [t0, t1] is the clock interval of the wait
  };
  Kind kind = Kind::Send;
  NameId phase = 0;      // receive phase / collective ("send", "opMM", ...)
  int rank = -1;         // the rank whose clock interval [t0, t1] is
  int peer = -1;         // dst for sends, src for receives
  SimTime t0 = 0.0;      // this rank's clock when the operation began
  SimTime t1 = 0.0;      // this rank's clock when it completed
  SimTime depart = 0.0;  // wire interval of the message involved
  SimTime arrival = 0.0;
  std::uint64_t bytes = 0;
};

/// Collects TraceSpans and CommEvents during a simulated run. Recording can
/// be disabled (the default for large cost-only sweeps) so hot paths pay one
/// branch.
class TraceRecorder {
 public:
  explicit TraceRecorder(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// The id of `name`, added to the name table on first use. Looking up a
  /// name already in the table does not allocate.
  NameId intern(std::string_view name);

  /// The name `id` stands for.
  const std::string& name(NameId id) const { return names_[id]; }

  /// Every interned name, indexed by id.
  const std::vector<std::string>& names() const { return names_; }

  /// Record one interval on interned names (no-op when disabled).
  void add(NameId resource, SimTime start, SimTime end, NameId label);

  /// Record one interval by name: interns both names, then records (no-op
  /// when disabled).
  void add(std::string_view resource, SimTime start, SimTime end,
           std::string_view label);

  /// Record one communication event; its phase is an id of this recorder
  /// (no-op when disabled).
  void add_comm(const CommEvent& ev);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<CommEvent>& comm_events() const { return comm_events_; }

  /// Total recorded volume (spans + comm events). Scaling sweeps publish it
  /// per design point so the trace/analysis cost of a large-p world is
  /// visible next to its makespan.
  std::size_t event_count() const {
    return spans_.size() + comm_events_.size();
  }

  /// Drop every recorded event. The name table stays, so ids held by
  /// callers remain valid.
  void clear() {
    spans_.clear();
    comm_events_.clear();
  }

  /// Append the events of `parts` (other recorders), in order, remapping
  /// their ids into this recorder's table, and empty the parts. Used to
  /// merge the per-rank recorders of a functional run: recorders are not
  /// thread-safe, so each rank records privately and merges afterwards.
  /// Storage for all of them is reserved once.
  void merge_from(std::span<TraceRecorder> parts);

  /// Total busy time per resource.
  std::map<std::string, SimTime> busy_by_resource() const;

  /// Total busy time per span label (summed across resources) — the
  /// "simulated" column of the drift reports.
  std::map<std::string, SimTime> busy_by_label() const;

  /// Utilization per resource over [0, horizon].
  std::map<std::string, double> utilization(SimTime horizon) const;

  /// CSV: resource,start,end,label — one row per span, sorted by start.
  /// Fields containing commas, quotes, or newlines are RFC-4180 quoted.
  void write_csv(std::ostream& os) const;

  /// Chrome trace-event JSON over *simulated* time (1 simulated µs = 1 trace
  /// µs), one lane per resource — written by the same obs::ChromeTraceWriter
  /// as the wall-clock tracer, so Perfetto can show both planes side by side.
  void write_chrome_json(std::ostream& os) const;

 private:
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Busy seconds per name of the spans' `key` field, over the names that
  /// occur there.
  std::map<std::string, SimTime> busy_by(NameId TraceSpan::*key) const;

  bool enabled_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId, NameHash, std::equal_to<>> ids_;
  std::vector<TraceSpan> spans_;
  std::vector<CommEvent> comm_events_;
};

}  // namespace rcs::sim
