#include "core/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string_view>

namespace rcs::core {

namespace {

using obs::cp::Analysis;
using obs::cp::PhaseAttribution;
using obs::cp::RankAttribution;
using obs::cp::Segment;

/// Phase labels charged to fault detection/repair/reissue work.
bool is_recovery_label(const std::string& label) {
  return label == "abft" || label == "abft.repair" ||
         label == "straggler.reissue" || label == "dmr" ||
         label == "dmr.repair";
}

enum class Unit : std::uint8_t { None, Cpu, Dram, Fpga, FpgaWait };

/// What one recorder name means to the analyzer. As a resource:
/// "node<r>.<unit>" with a known unit and r < ranks, or Unit::None for
/// anything else. As a label: whether it names recovery work.
struct NameClass {
  int rank = -1;
  Unit unit = Unit::None;
  bool recovery = false;
};

NameClass classify(const std::string& name, int ranks) {
  NameClass out;
  out.recovery = is_recovery_label(name);
  if (name.rfind("node", 0) != 0) return out;
  const std::size_t dot = name.find('.', 4);
  if (dot == std::string::npos || dot == 4) return out;
  char* end = nullptr;
  const long r = std::strtol(name.c_str() + 4, &end, 10);
  if (end != name.c_str() + dot || r < 0 || r >= ranks) return out;
  const std::string_view unit = std::string_view(name).substr(dot + 1);
  out.unit = unit == "cpu"         ? Unit::Cpu
             : unit == "dram"      ? Unit::Dram
             : unit == "fpga"      ? Unit::Fpga
             : unit == "fpga_wait" ? Unit::FpgaWait
                                   : Unit::None;
  out.rank = static_cast<int>(r);
  return out;
}

/// The buckets an attributed interval adds to; a rank's idle time is what
/// they leave of the makespan.
enum class Bucket : std::uint8_t { Cpu, Fpga, TransferVisible, FaultRecovery };

Bucket bucket_of(Unit unit, bool recovery) {
  return unit == Unit::Dram       ? Bucket::TransferVisible
         : unit == Unit::FpgaWait ? Bucket::Fpga
         : recovery               ? Bucket::FaultRecovery
                                  : Bucket::Cpu;
}

const char* kind_of(Bucket b) {
  switch (b) {
    case Bucket::Cpu: return "cpu";
    case Bucket::Fpga: return "fpga";
    case Bucket::TransferVisible: return "transfer";
    case Bucket::FaultRecovery: return "recovery";
  }
  return "cpu";
}

template <class Attribution>
double& bucket_slot(Attribution& a, Bucket b) {
  switch (b) {
    case Bucket::Cpu: return a.cpu_s;
    case Bucket::Fpga: return a.fpga_s;
    case Bucket::TransferVisible: return a.transfer_visible_s;
    case Bucket::FaultRecovery: return a.fault_recovery_s;
  }
  return a.cpu_s;
}

/// One event in the walk's index: a clock interval [start, end] of the rank
/// that holds it, or a wire [start = depart, end = arrival] that rank sent,
/// and the event's number. Spans are numbered first, in the recorder's
/// order, then comm events.
struct Entry {
  double start;
  double end;
  std::size_t event;
};

// The index orders. Ties fall to the event number, so each order is total
// and sorting any arrangement of the events gives the order a stable sort
// of the recorder's order would.
bool by_start(const Entry& a, const Entry& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.end != b.end) return a.end < b.end;
  return a.event < b.event;
}

bool by_arrival(const Entry& a, const Entry& b) {
  if (a.end != b.end) return a.end < b.end;
  if (a.start != b.start) return a.start < b.start;
  return a.event < b.event;
}

/// One rank's slice [begin, end) of an index, and the walk's cursor in it.
struct Slice {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t at = 0;
};

/// Sort [first, last) by `less`; `buf` holds at least last - first entries.
/// A merged per-rank recorder lists a rank's events as two runs in clock
/// order, its spans and then its comm events, so one merge sorts them. Any
/// other arrangement is sorted outright.
template <class Less>
void sort_slice(Entry* first, Entry* last, Entry* buf, Less less) {
  Entry* const mid = std::is_sorted_until(first, last, less);
  if (mid == last) return;
  if (!std::is_sorted(mid, last, less)) {
    std::sort(first, last, less);
    return;
  }
  Entry* const buf_end = std::copy(first, mid, buf);
  Entry* right = mid;
  for (Entry *left = buf, *out = first; left != buf_end; ++out) {
    *out = right != last && less(*right, *left) ? *right++ : *left++;
  }
}

/// The backward critical-path walk. Its time only decreases, so each rank
/// keeps one cursor into its intervals and one into its wires, and every
/// query moves a cursor from where the last one left it.
struct Walker {
  const sim::TraceRecorder& rec;
  const std::vector<NameClass>& classes;
  int ranks;
  double eps;
  const Entry* entries;
  const Entry* wires;
  std::vector<Slice>& entry_at;
  std::vector<Slice>& wire_at;

  const sim::CommEvent& comm(const Entry& e) const {
    return rec.comm_events()[e.event - rec.spans().size()];
  }

  /// The latest interval on `rank` ending at or before `t` (nullptr when
  /// none). A rank's intervals do not overlap, so their ends rise in start
  /// order.
  const Entry* last_ending_by(int rank, double t) {
    Slice& s = entry_at[static_cast<std::size_t>(rank)];
    while (s.at > s.begin && entries[s.at - 1].end > t) --s.at;
    while (s.at < s.end && entries[s.at].end <= t) ++s.at;
    return s.at == s.begin ? nullptr : &entries[s.at - 1];
  }

  /// Latest interval on `rank` ending within eps of `t` (nullptr when
  /// none).
  const Entry* interval_ending_at(int rank, double t) {
    const Entry* iv = last_ending_by(rank, t + eps);
    return iv != nullptr && iv->end >= t - eps ? iv : nullptr;
  }

  /// A wire sent by `rank` arriving within eps of `t` (NIC serialization
  /// chain); latest departure wins, ties broken by the lower destination.
  const Entry* wire_arriving_at(int rank, double t) {
    Slice& s = wire_at[static_cast<std::size_t>(rank)];
    const double from = t - eps;
    while (s.at > s.begin && wires[s.at - 1].end >= from) --s.at;
    while (s.at < s.end && wires[s.at].end < from) ++s.at;
    const Entry* best = nullptr;
    for (std::size_t i = s.at; i < s.end && wires[i].end <= t + eps; ++i) {
      const Entry& w = wires[i];
      if (best == nullptr || w.start > best->start ||
          (w.start == best->start && comm(w).peer < comm(*best).peer)) {
        best = &w;
      }
    }
    return best;
  }

  /// The segment for an interval the walk steps back over, ending at `t`.
  Segment interval_segment(int rank, const Entry& iv, double t) const {
    const std::size_t spans = rec.spans().size();
    if (iv.event < spans) {
      const sim::TraceSpan& s = rec.spans()[iv.event];
      const NameClass& res = classes[s.resource];
      return Segment{kind_of(bucket_of(res.unit, classes[s.label].recovery)),
                     rank,
                     -1,
                     rec.name(s.label),
                     iv.start,
                     std::min(iv.end, t)};
    }
    const sim::CommEvent& ev = comm(iv);
    return Segment{kind_of(Bucket::TransferVisible), rank, ev.peer,
                   rec.name(ev.phase), iv.start, std::min(iv.end, t)};
  }

  /// Walk back from the makespan on `rank`, whose last interval ends at
  /// `finish`, appending at most `cap` segments, latest first.
  void run(int rank, double finish, double makespan, std::size_t cap,
           std::vector<Segment>& path) {
    double t = makespan;
    if (finish < t - eps) {
      path.push_back(Segment{"idle", rank, -1, "tail", finish, t});
      t = finish;
    }
    // Every step strictly decreases t (intervals and wires of eps or less
    // are not indexed), so the walk terminates; the cap is a backstop.
    while (t > eps && path.size() < cap) {
      if (const Entry* iv = interval_ending_at(rank, t)) {
        if (iv->event >= rec.spans().size()) {
          const sim::CommEvent& ev = comm(*iv);
          const bool arrival_bound =
              ev.kind == sim::CommEvent::Kind::Recv && ev.peer >= 0 &&
              ev.peer < ranks && std::abs(iv->end - ev.arrival) <= eps &&
              ev.arrival - ev.depart > eps;
          if (arrival_bound) {
            // The clock was bound by the message's arrival: the constraint
            // is the wire, then the sender at departure time. The
            // receiver's pre-departure waiting is correctly not on the path.
            path.push_back(Segment{"wire", ev.peer, rank, rec.name(ev.phase),
                                   ev.depart, ev.arrival});
            rank = ev.peer;
            t = ev.depart;
            continue;
          }
        }
        path.push_back(interval_segment(rank, *iv, t));
        t = iv->start;
        continue;
      }
      if (const Entry* w = wire_arriving_at(rank, t)) {
        // Nothing on the CPU ends here, but this rank's NIC just finished a
        // transfer: follow the NIC serialization chain.
        path.push_back(
            Segment{"wire", rank, comm(*w).peer, "nic", w->start, w->end});
        t = w->start;
        continue;
      }
      // Unattributable gap: nothing recorded explains [e, t] on this rank.
      const Entry* prev = last_ending_by(rank, t - eps);
      const double e = prev == nullptr ? 0.0 : prev->end;
      path.push_back(Segment{"idle", rank, -1, "gap", e, t});
      t = e;
    }
  }
};

}  // namespace

obs::cp::Analysis analyze_run(const sim::TraceRecorder& rec, int ranks,
                              double makespan) {
  Analysis an;
  an.ranks = ranks;
  an.makespan_s = makespan;
  if (ranks <= 0 || makespan <= 0.0) return an;

  const double mk = makespan;
  const double eps = mk * 1e-12 + 1e-15;
  const std::vector<std::string>& names = rec.names();
  const std::vector<sim::TraceSpan>& spans = rec.spans();
  const std::vector<sim::CommEvent>& comms = rec.comm_events();
  const auto rank_count = static_cast<std::size_t>(ranks);

  // Classify each distinct name once.
  std::vector<NameClass> classes;
  classes.reserve(names.size());
  for (const std::string& name : names) {
    classes.push_back(classify(name, ranks));
  }

  // --- Per-rank and per-phase attribution -------------------------------
  // Spans first, then comm events, each in the recorder's order, so every
  // sum adds its terms in one fixed order. The pass also sizes each rank's
  // slices of the walk's index: the intervals and wires longer than eps,
  // the only ones the walk can follow.
  an.per_rank.resize(rank_count);
  for (int r = 0; r < ranks; ++r) {
    an.per_rank[static_cast<std::size_t>(r)].rank = r;
  }
  // One bucket set per label id; a phase is reported when any attributed
  // interval (zero-length ones included) carries its label.
  std::vector<PhaseAttribution> phases(names.size());
  std::vector<char> phase_seen(names.size(), 0);
  std::vector<Slice> entry_at(rank_count);
  std::vector<Slice> wire_at(rank_count);
  std::size_t intervals = 0;  // attributed intervals
  std::size_t sends = 0;      // wires, zero-length ones included
  double concurrent_fpga_s = 0.0;
  double wire_s = 0.0;
  const auto walked = [eps](double from, double to) { return to - from > eps; };
  const auto attribute = [&](int rank, Bucket bucket, sim::NameId label,
                             double start, double end,
                             const sim::CommEvent* recv) {
    RankAttribution& ra = an.per_rank[static_cast<std::size_t>(rank)];
    // Clip to [0, makespan]: activity past the recorded finish (e.g. an
    // ill-formed trace) must not break the partition.
    const double s = std::max(0.0, std::min(start, mk));
    const double e = std::max(0.0, std::min(end, mk));
    const double len = std::max(0.0, e - s);
    PhaseAttribution& pa = phases[label];
    phase_seen[label] = 1;
    if (len > 0.0) {
      bucket_slot(ra, bucket) += len;
      bucket_slot(pa, bucket) += len;
    }
    if (recv != nullptr) {
      // The wire of the received message, and the part of it that elapsed
      // behind the receiver's own clock before the wait began; the rest
      // was a visible stall.
      const double wire = std::max(0.0, recv->arrival - recv->depart);
      const double visible =
          std::min(wire, std::max(0.0, recv->arrival - start));
      ra.transfer_hidden_s += wire - visible;
      pa.transfer_hidden_s += wire - visible;
      pa.transfer_wire_s += wire;
    }
    ra.finish_s = std::max(ra.finish_s, e);
    ++intervals;
    if (walked(start, end)) ++entry_at[static_cast<std::size_t>(rank)].end;
  };
  for (const sim::TraceSpan& s : spans) {
    const NameClass& res = classes[s.resource];
    if (res.unit == Unit::None) continue;
    if (res.unit == Unit::Fpga) {
      // The device runs concurrently with the CPU timeline: its busy time
      // is a resource, not a slice of the rank's clock.
      concurrent_fpga_s += s.end - s.start;
      continue;
    }
    attribute(res.rank, bucket_of(res.unit, classes[s.label].recovery),
              s.label, s.start, s.end, nullptr);
  }
  for (const sim::CommEvent& ev : comms) {
    if (ev.rank < 0 || ev.rank >= ranks) continue;
    const bool is_recv = ev.kind == sim::CommEvent::Kind::Recv;
    if (!is_recv) {
      ++sends;
      wire_s += std::max(0.0, ev.arrival - ev.depart);
      if (walked(ev.depart, ev.arrival)) {
        ++wire_at[static_cast<std::size_t>(ev.rank)].end;
      }
      // A zero-length send setup is only a wire; a zero-length receive is
      // an interval (it holds the wire of a fully hidden transfer).
      if (ev.t1 <= ev.t0) continue;
    }
    attribute(ev.rank, Bucket::TransferVisible, ev.phase, ev.t0, ev.t1,
              is_recv ? &ev : nullptr);
  }

  double busy_sum = 0.0, busy_sq = 0.0, busy_max = 0.0;
  for (RankAttribution& ra : an.per_rank) {
    const double raw_busy = ra.busy_s();
    const double idle = mk - raw_busy;
    if (idle < 0.0) {
      an.max_bucket_sum_rel_err =
          std::max(an.max_bucket_sum_rel_err, -idle / mk);
    }
    ra.wait_idle_s = std::max(0.0, idle);
    ra.utilization = raw_busy / mk;
    busy_sum += raw_busy;
    busy_sq += raw_busy * raw_busy;
    busy_max = std::max(busy_max, raw_busy);
  }
  an.buckets_sum_to_makespan = an.max_bucket_sum_rel_err <= 1e-6;
  an.mean_utilization = busy_sum / (static_cast<double>(ranks) * mk);
  const double busy_mean = busy_sum / static_cast<double>(ranks);
  an.imbalance_max_over_mean = busy_mean > 0.0 ? busy_max / busy_mean : 0.0;
  an.jain_fairness =
      busy_sq > 0.0
          ? (busy_sum * busy_sum) / (static_cast<double>(ranks) * busy_sq)
          : 0.0;

  an.per_phase.reserve(static_cast<std::size_t>(
      std::count(phase_seen.begin(), phase_seen.end(), 1)));
  for (std::size_t id = 0; id < phases.size(); ++id) {
    if (!phase_seen[id]) continue;
    phases[id].label = names[id];
    an.per_phase.push_back(std::move(phases[id]));
  }
  std::sort(an.per_phase.begin(), an.per_phase.end(),
            [](const PhaseAttribution& a, const PhaseAttribution& b) {
              return a.label < b.label;
            });

  an.resource_seconds_s = busy_sum + concurrent_fpga_s + wire_s;

  // --- The walk's index -------------------------------------------------
  // One flat array of intervals and one of wires, each rank's slice at its
  // offset, then each slice sorted: intervals by (start, end), wires by
  // (arrival, depart).
  std::size_t entry_count = 0, wire_count = 0, longest = 0;
  const auto lay_out = [&longest](Slice& slice, std::size_t& count) {
    const std::size_t n = slice.end;  // the attribution pass's count
    slice.begin = slice.at = count;
    slice.end = count += n;
    longest = std::max(longest, n);
  };
  for (std::size_t r = 0; r < rank_count; ++r) {
    lay_out(entry_at[r], entry_count);
    lay_out(wire_at[r], wire_count);
  }
  const auto entries = std::make_unique_for_overwrite<Entry[]>(entry_count);
  const auto wires = std::make_unique_for_overwrite<Entry[]>(wire_count);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const sim::TraceSpan& s = spans[i];
    const NameClass& res = classes[s.resource];
    if (res.unit == Unit::None || res.unit == Unit::Fpga ||
        !walked(s.start, s.end)) {
      continue;
    }
    entries[entry_at[static_cast<std::size_t>(res.rank)].at++] =
        Entry{s.start, s.end, i};
  }
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const sim::CommEvent& ev = comms[i];
    if (ev.rank < 0 || ev.rank >= ranks) continue;
    const auto r = static_cast<std::size_t>(ev.rank);
    const std::size_t event = spans.size() + i;
    if (ev.kind != sim::CommEvent::Kind::Recv &&
        walked(ev.depart, ev.arrival)) {
      wires[wire_at[r].at++] = Entry{ev.depart, ev.arrival, event};
    }
    if (walked(ev.t0, ev.t1)) {
      entries[entry_at[r].at++] = Entry{ev.t0, ev.t1, event};
    }
  }
  // Every cursor now stands at its slice's end, where the walk starts.
  const auto buf = std::make_unique_for_overwrite<Entry[]>(longest);
  for (std::size_t r = 0; r < rank_count; ++r) {
    sort_slice(entries.get() + entry_at[r].begin,
               entries.get() + entry_at[r].end, buf.get(), by_start);
    sort_slice(wires.get() + wire_at[r].begin, wires.get() + wire_at[r].end,
               buf.get(), by_arrival);
  }

  // --- Critical path ----------------------------------------------------
  int start_rank = 0;
  double finish = 0.0;
  for (const RankAttribution& ra : an.per_rank) {
    if (ra.finish_s > finish) {
      finish = ra.finish_s;
      start_rank = ra.rank;
    }
  }
  // Each step follows an indexed interval or wire, or crosses an idle gap,
  // so the path fits a reserve of the index's size and is built in place;
  // the cap is a backstop.
  const std::size_t cap = intervals + sends + rank_count * 2 + 16;
  an.critical_path.reserve(entry_count + wire_count + rank_count * 2 + 16);
  Walker walker{rec,          classes,       ranks,    eps,
                entries.get(), wires.get(), entry_at, wire_at};
  walker.run(start_rank, finish, mk, cap, an.critical_path);
  std::reverse(an.critical_path.begin(), an.critical_path.end());
  for (const Segment& seg : an.critical_path) {
    (seg.kind == "idle" ? an.cp_idle_s : an.critical_path_s) +=
        seg.duration();
  }

  // --- Invariants -------------------------------------------------------
  const double tol = mk * 1e-9 + 1e-12;
  an.cp_le_makespan = an.critical_path_s <= mk + tol;
  an.makespan_le_resource_seconds = mk <= an.resource_seconds_s + tol;
  return an;
}

}  // namespace rcs::core
