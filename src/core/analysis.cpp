#include "core/analysis.hpp"

#include <cstdint>
#include <cstdlib>
#include <string_view>

namespace rcs::core {

namespace {

using obs::cp::Bucket;
using obs::cp::Interval;
using obs::cp::Op;
using obs::cp::Timeline;
using obs::cp::Wire;

/// Phase labels charged to fault detection/repair/reissue work.
bool is_recovery_label(const std::string& label) {
  return label == "abft" || label == "abft.repair" ||
         label == "straggler.reissue" || label == "dmr" ||
         label == "dmr.repair";
}

enum class Unit : std::uint8_t { None, Cpu, Dram, Fpga, FpgaWait };

/// What a trace resource name means to the analyzer: "node<r>.<unit>" with
/// a known unit, or Unit::None for anything else.
struct Resource {
  int rank = -1;
  Unit unit = Unit::None;
};

Resource classify_resource(const std::string& resource) {
  Resource out;
  if (resource.rfind("node", 0) != 0) return out;
  const std::size_t dot = resource.find('.', 4);
  if (dot == std::string::npos || dot == 4) return out;
  char* end = nullptr;
  const long r = std::strtol(resource.c_str() + 4, &end, 10);
  if (end != resource.c_str() + dot) return out;
  const std::string_view unit = std::string_view(resource).substr(dot + 1);
  out.unit = unit == "cpu"         ? Unit::Cpu
             : unit == "dram"      ? Unit::Dram
             : unit == "fpga"      ? Unit::Fpga
             : unit == "fpga_wait" ? Unit::FpgaWait
                                   : Unit::None;
  out.rank = static_cast<int>(r);
  return out;
}

}  // namespace

Timeline build_cp_timeline(const sim::TraceRecorder& rec, int ranks,
                           double makespan) {
  Timeline tl;
  tl.ranks = ranks;
  tl.makespan = makespan;

  // Classify each distinct name once; intervals carry the timeline's own
  // label ids, interned on a name's first use as a label.
  const std::vector<std::string>& names = rec.names();
  std::vector<Resource> resources(names.size());
  std::vector<char> recovery(names.size());
  for (std::size_t id = 0; id < names.size(); ++id) {
    resources[id] = classify_resource(names[id]);
    recovery[id] = is_recovery_label(names[id]);
  }
  constexpr std::uint32_t kUnset = ~std::uint32_t{0};
  std::vector<std::uint32_t> label_ids(names.size(), kUnset);
  const auto label = [&](sim::NameId id) {
    if (label_ids[id] == kUnset) label_ids[id] = tl.intern_label(names[id]);
    return label_ids[id];
  };

  tl.intervals.reserve(rec.event_count());
  tl.wires.reserve(rec.comm_events().size());
  for (const sim::TraceSpan& s : rec.spans()) {
    const Resource& res = resources[s.resource];
    if (res.unit == Unit::None || res.rank < 0 || res.rank >= ranks) continue;
    if (res.unit == Unit::Fpga) {
      // The device runs concurrently with the CPU timeline: its busy time
      // is a resource, not a slice of the rank's clock.
      tl.concurrent_fpga_s += s.end - s.start;
      continue;
    }
    Interval iv;
    iv.rank = res.rank;
    iv.start = s.start;
    iv.end = s.end;
    iv.label = label(s.label);
    iv.bucket = res.unit == Unit::Dram ? Bucket::TransferVisible
                : res.unit == Unit::FpgaWait ? Bucket::Fpga
                : recovery[s.label]          ? Bucket::FaultRecovery
                                             : Bucket::Cpu;
    tl.intervals.push_back(iv);
  }

  for (const sim::CommEvent& ev : rec.comm_events()) {
    if (ev.rank < 0 || ev.rank >= ranks) continue;
    const bool is_recv = ev.kind == sim::CommEvent::Kind::Recv;
    if (!is_recv) {
      tl.wires.push_back(
          Wire{ev.rank, ev.peer, ev.depart, ev.arrival, ev.bytes});
    }
    // Zero-length send setups carry no information; zero-length receives do
    // (they hold the wire interval of a fully hidden transfer).
    if (!is_recv && ev.t1 <= ev.t0) continue;
    Interval iv;
    iv.rank = ev.rank;
    iv.start = ev.t0;
    iv.end = ev.t1;
    iv.bucket = Bucket::TransferVisible;
    iv.op = is_recv ? Op::Recv : Op::Send;
    iv.label = label(ev.phase);
    iv.peer = ev.peer;
    iv.depart = ev.depart;
    iv.arrival = ev.arrival;
    tl.intervals.push_back(iv);
  }
  return tl;
}

obs::cp::Analysis analyze_run(const sim::TraceRecorder& rec, int ranks,
                              double makespan) {
  return obs::cp::analyze(build_cp_timeline(rec, ranks, makespan));
}

}  // namespace rcs::core
