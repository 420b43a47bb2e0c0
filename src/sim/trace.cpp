#include "sim/trace.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace rcs::sim {

namespace {

/// RFC-4180 field quoting: wrap in double quotes when the field contains a
/// comma, quote, or line break; embedded quotes double.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

NameId TraceRecorder::intern(std::string_view name) {
  if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
  const auto id = static_cast<NameId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

void TraceRecorder::add(NameId resource, SimTime start, SimTime end,
                        NameId label) {
  if (!enabled_) return;
  RCS_CHECK_MSG(end >= start,
                "trace span ends before it starts: " << names_[label]);
  spans_.push_back(TraceSpan{resource, label, start, end});
}

void TraceRecorder::add(std::string_view resource, SimTime start, SimTime end,
                        std::string_view label) {
  if (!enabled_) return;
  add(intern(resource), start, end, intern(label));
}

void TraceRecorder::add_comm(const CommEvent& ev) {
  if (!enabled_) return;
  RCS_CHECK_MSG(ev.t1 >= ev.t0,
                "comm event ends before it starts: " << names_[ev.phase]);
  comm_events_.push_back(ev);
}

void TraceRecorder::merge_from(std::span<TraceRecorder> parts) {
  std::size_t spans = spans_.size(), comm_events = comm_events_.size();
  for (const TraceRecorder& part : parts) {
    spans += part.spans_.size();
    comm_events += part.comm_events_.size();
  }
  spans_.reserve(spans);
  comm_events_.reserve(comm_events);
  std::vector<NameId> remap;
  for (TraceRecorder& part : parts) {
    remap.clear();
    for (const std::string& n : part.names_) remap.push_back(intern(n));
    for (const TraceSpan& s : part.spans_) {
      spans_.push_back(
          TraceSpan{remap[s.resource], remap[s.label], s.start, s.end});
    }
    for (const CommEvent& ev : part.comm_events_) {
      comm_events_.push_back(ev);
      comm_events_.back().phase = remap[ev.phase];
    }
    part.clear();
  }
}

std::map<std::string, SimTime> TraceRecorder::busy_by(
    NameId TraceSpan::*key) const {
  std::vector<SimTime> busy(names_.size(), 0.0);
  std::vector<char> seen(names_.size(), 0);
  for (const auto& s : spans_) {
    busy[s.*key] += s.end - s.start;
    seen[s.*key] = 1;
  }
  std::map<std::string, SimTime> out;
  for (std::size_t id = 0; id < names_.size(); ++id) {
    if (seen[id]) out.emplace(names_[id], busy[id]);
  }
  return out;
}

std::map<std::string, SimTime> TraceRecorder::busy_by_resource() const {
  return busy_by(&TraceSpan::resource);
}

std::map<std::string, SimTime> TraceRecorder::busy_by_label() const {
  return busy_by(&TraceSpan::label);
}

std::map<std::string, double> TraceRecorder::utilization(
    SimTime horizon) const {
  RCS_CHECK_MSG(horizon > 0.0, "utilization horizon must be positive");
  std::map<std::string, double> util;
  for (const auto& [res, busy] : busy_by_resource()) util[res] = busy / horizon;
  return util;
}

void TraceRecorder::write_csv(std::ostream& os) const {
  std::vector<const TraceSpan*> order;
  order.reserve(spans_.size());
  for (const auto& s : spans_) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(),
                   [](const TraceSpan* a, const TraceSpan* b) {
                     return a->start < b->start;
                   });
  std::vector<std::string> fields(names_.size());
  for (std::size_t id = 0; id < names_.size(); ++id) {
    fields[id] = csv_field(names_[id]);
  }
  os << "resource,start,end,label\n";
  for (const TraceSpan* s : order) {
    os << fields[s->resource] << ',' << s->start << ',' << s->end << ','
       << fields[s->label] << '\n';
  }
}

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  // Stable lane numbering: the spans' resources in name order.
  std::vector<int> tid(names_.size(), 0);
  for (const auto& s : spans_) tid[s.resource] = 1;
  std::vector<NameId> lanes;
  for (std::size_t id = 0; id < names_.size(); ++id) {
    if (tid[id] != 0) lanes.push_back(static_cast<NameId>(id));
  }
  std::sort(lanes.begin(), lanes.end(), [this](NameId a, NameId b) {
    return names_[a] < names_[b];
  });

  obs::ChromeTraceWriter out(os);
  int next = 1;
  for (const NameId id : lanes) {
    tid[id] = next++;
    out.lane(tid[id], names_[id]);
  }
  for (const auto& s : spans_) {
    out.event(names_[s.label], "sim", s.start * 1e6, (s.end - s.start) * 1e6,
              tid[s.resource]);
  }
  out.finish();
}

}  // namespace rcs::sim
