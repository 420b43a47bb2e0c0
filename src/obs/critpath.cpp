#include "obs/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "obs/trace.hpp"

namespace rcs::obs::cp {

namespace {

const char* kind_of(const Interval& iv) {
  switch (iv.bucket) {
    case Bucket::Cpu: return "cpu";
    case Bucket::Fpga: return "fpga";
    case Bucket::TransferVisible: return "transfer";
    case Bucket::FaultRecovery: return "recovery";
    case Bucket::WaitIdle: return "idle";
  }
  return "cpu";
}

double& bucket_slot(RankAttribution& a, Bucket b) {
  switch (b) {
    case Bucket::Cpu: return a.cpu_s;
    case Bucket::Fpga: return a.fpga_s;
    case Bucket::TransferVisible: return a.transfer_visible_s;
    case Bucket::FaultRecovery: return a.fault_recovery_s;
    case Bucket::WaitIdle: return a.wait_idle_s;
  }
  return a.cpu_s;
}

double& bucket_slot(PhaseAttribution& a, Bucket b) {
  switch (b) {
    case Bucket::Cpu: return a.cpu_s;
    case Bucket::Fpga: return a.fpga_s;
    case Bucket::TransferVisible: return a.transfer_visible_s;
    case Bucket::FaultRecovery: return a.fault_recovery_s;
    case Bucket::WaitIdle: return a.transfer_visible_s;  // unreachable
  }
  return a.cpu_s;
}

/// Wire seconds of a receive: its message's [depart, arrival] interval.
double wire_of(const Interval& iv) {
  return std::max(0.0, iv.arrival - iv.depart);
}

/// Wire seconds of a receive that elapsed behind the receiver's own clock
/// before the wait began; the rest of the wire was a visible stall.
double hidden_of(const Interval& iv) {
  const double total = wire_of(iv);
  const double visible =
      std::min(total, std::max(0.0, iv.arrival - iv.start));
  return total - visible;
}

/// Stable sort by `less`, linear when the input is at most two ascending
/// runs — the shape of one rank's intervals from core::build_cp_timeline
/// (compute spans, then comm events) and of its outgoing wires.
template <class T, class Less>
void stable_sort_runs(std::vector<T>& v, Less less) {
  const auto mid = std::is_sorted_until(v.begin(), v.end(), less);
  if (std::is_sorted(mid, v.end(), less)) {
    std::inplace_merge(v.begin(), mid, v.end(), less);
  } else {
    std::stable_sort(v.begin(), v.end(), less);
  }
}

/// One critical-path step; the walk records these backwards and the
/// Segments are built once, in chronological order, at the end.
struct Step {
  const char* kind;
  int rank;
  int peer;
  std::string_view label;  // a Timeline label or a literal
  double start;
  double end;
};

struct Walker {
  const Timeline& tl;
  double eps;
  // Per-rank nonzero-length intervals sorted by start (ends are monotone
  // too: intervals on one rank never overlap); the walk never follows a
  // zero-length one. Per-rank outgoing wires sorted by arrival.
  std::vector<std::vector<const Interval*>> by_rank;
  std::vector<std::vector<const Wire*>> wires_from;
  std::vector<Step> path;  // latest step first

  explicit Walker(const Timeline& timeline, double epsilon)
      : tl(timeline), eps(epsilon) {
    by_rank.resize(static_cast<std::size_t>(tl.ranks));
    wires_from.resize(static_cast<std::size_t>(tl.ranks));
    for (const Interval& iv : tl.intervals) {
      if (iv.rank < 0 || iv.rank >= tl.ranks || iv.end - iv.start <= eps) {
        continue;
      }
      by_rank[static_cast<std::size_t>(iv.rank)].push_back(&iv);
    }
    for (auto& v : by_rank) {
      stable_sort_runs(v, [](const Interval* a, const Interval* b) {
        return a->start < b->start || (a->start == b->start && a->end < b->end);
      });
    }
    for (const Wire& w : tl.wires) {
      if (w.src < 0 || w.src >= tl.ranks) continue;
      wires_from[static_cast<std::size_t>(w.src)].push_back(&w);
    }
    for (auto& v : wires_from) {
      stable_sort_runs(v, [](const Wire* a, const Wire* b) {
        return a->arrival < b->arrival ||
               (a->arrival == b->arrival && a->depart < b->depart);
      });
    }
  }

  /// The latest interval on `rank` ending at or before `t` (nullptr when
  /// none). Binary search on end times, monotone in start order.
  const Interval* last_ending_by(int rank, double t) const {
    const auto& v = by_rank[static_cast<std::size_t>(rank)];
    const auto it = std::upper_bound(v.begin(), v.end(), t,
                                     [](double val, const Interval* iv) {
                                       return val < iv->end;
                                     });
    return it == v.begin() ? nullptr : *std::prev(it);
  }

  /// Latest nonzero-length interval on `rank` ending within eps of `t`
  /// (nullptr when none).
  const Interval* interval_ending_at(int rank, double t) const {
    const Interval* iv = last_ending_by(rank, t + eps);
    return iv != nullptr && iv->end >= t - eps ? iv : nullptr;
  }

  /// Latest nonzero-length interval on `rank` ending strictly before `t`.
  const Interval* interval_before(int rank, double t) const {
    return last_ending_by(rank, t - eps);
  }

  /// A nonzero-length wire sent by `rank` arriving within eps of `t` (NIC
  /// serialization chain); latest departure wins, ties broken by the lower
  /// destination. Binary search to the eps window, then scan only it.
  const Wire* wire_arriving_at(int rank, double t) const {
    const auto& v = wires_from[static_cast<std::size_t>(rank)];
    auto it = std::lower_bound(v.begin(), v.end(), t - eps,
                               [](const Wire* w, double val) {
                                 return w->arrival < val;
                               });
    const Wire* best = nullptr;
    for (; it != v.end(); ++it) {
      const Wire* w = *it;
      if (w->arrival > t + eps) break;
      if (w->arrival - w->depart <= eps) continue;
      if (best == nullptr || w->depart > best->depart ||
          (w->depart == best->depart && w->dst < best->dst)) {
        best = w;
      }
    }
    return best;
  }

  void run(int start_rank, double finish) {
    int rank = start_rank;
    double t = tl.makespan;
    if (finish < t - eps) {
      path.push_back(Step{"idle", rank, -1, "tail", finish, t});
      t = finish;
    }
    // Every step strictly decreases t (zero-length intervals and wires are
    // never followed), so the walk terminates; the cap is a backstop.
    const std::size_t cap =
        tl.intervals.size() + tl.wires.size() +
        static_cast<std::size_t>(tl.ranks) * 2 + 16;
    while (t > eps && path.size() < cap) {
      if (const Interval* iv = interval_ending_at(rank, t)) {
        const bool arrival_bound =
            iv->op == Op::Recv && iv->peer >= 0 && iv->peer < tl.ranks &&
            std::abs(iv->end - iv->arrival) <= eps &&
            iv->arrival - iv->depart > eps;
        if (arrival_bound) {
          // The clock was bound by the message's arrival: the constraint is
          // the wire, then the sender at departure time. The receiver's
          // pre-departure waiting is correctly not on the path.
          path.push_back(Step{"wire", iv->peer, rank, tl.labels[iv->label],
                              iv->depart, iv->arrival});
          rank = iv->peer;
          t = iv->depart;
        } else {
          path.push_back(Step{kind_of(*iv), rank, iv->peer,
                              tl.labels[iv->label], iv->start,
                              std::min(iv->end, t)});
          t = iv->start;
        }
        continue;
      }
      if (const Wire* w = wire_arriving_at(rank, t)) {
        // Nothing on the CPU ends here, but this rank's NIC just finished a
        // transfer: follow the NIC serialization chain.
        path.push_back(
            Step{"wire", rank, w->dst, "nic", w->depart, w->arrival});
        t = w->depart;
        continue;
      }
      // Unattributable gap: nothing recorded explains [e, t] on this rank.
      const Interval* prev = interval_before(rank, t);
      const double e = prev == nullptr ? 0.0 : prev->end;
      path.push_back(Step{"idle", rank, -1, "gap", e, t});
      t = e;
    }
  }
};

}  // namespace

std::uint32_t Timeline::intern_label(std::string_view name) {
  const auto it = std::find(labels.begin(), labels.end(), name);
  if (it == labels.end()) {
    labels.emplace_back(name);
    return static_cast<std::uint32_t>(labels.size() - 1);
  }
  return static_cast<std::uint32_t>(it - labels.begin());
}

std::vector<Segment> Analysis::top_segments(std::size_t k) const {
  std::vector<Segment> out = critical_path;
  std::stable_sort(out.begin(), out.end(),
                   [](const Segment& a, const Segment& b) {
                     if (a.duration() != b.duration())
                       return a.duration() > b.duration();
                     if (a.start != b.start) return a.start < b.start;
                     return a.rank < b.rank;
                   });
  if (out.size() > k) out.resize(k);
  return out;
}

Analysis analyze(const Timeline& timeline) {
  Analysis an;
  an.ranks = timeline.ranks;
  an.makespan_s = timeline.makespan;
  if (timeline.ranks <= 0 || timeline.makespan <= 0.0) return an;

  const double mk = timeline.makespan;
  const double eps = mk * 1e-12 + 1e-15;

  // --- Per-rank and per-phase attribution -------------------------------
  an.per_rank.resize(static_cast<std::size_t>(timeline.ranks));
  // One bucket set per label id; a phase is reported when any interval
  // (zero-length ones included) carries its label.
  std::vector<PhaseAttribution> phases(timeline.labels.size());
  std::vector<char> phase_seen(timeline.labels.size(), 0);
  for (int r = 0; r < timeline.ranks; ++r) {
    an.per_rank[static_cast<std::size_t>(r)].rank = r;
  }
  for (const Interval& raw : timeline.intervals) {
    if (raw.rank < 0 || raw.rank >= timeline.ranks) continue;
    RankAttribution& ra = an.per_rank[static_cast<std::size_t>(raw.rank)];
    // Clip to [0, makespan]: activity past the recorded finish (e.g. an
    // ill-formed timeline) must not break the partition.
    const double s = std::max(0.0, std::min(raw.start, mk));
    const double e = std::max(0.0, std::min(raw.end, mk));
    const double len = std::max(0.0, e - s);
    PhaseAttribution& pa = phases.at(raw.label);
    phase_seen[raw.label] = 1;
    if (len > 0.0) {
      bucket_slot(ra, raw.bucket) += len;
      bucket_slot(pa, raw.bucket) += len;
    }
    if (raw.op == Op::Recv) {
      const double hidden = hidden_of(raw);
      ra.transfer_hidden_s += hidden;
      pa.transfer_hidden_s += hidden;
      pa.transfer_wire_s += wire_of(raw);
    }
    ra.finish_s = std::max(ra.finish_s, e);
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
  an.mean_utilization = busy_sum / (static_cast<double>(timeline.ranks) * mk);
  const double busy_mean = busy_sum / static_cast<double>(timeline.ranks);
  an.imbalance_max_over_mean = busy_mean > 0.0 ? busy_max / busy_mean : 0.0;
  an.jain_fairness =
      busy_sq > 0.0
          ? (busy_sum * busy_sum) /
                (static_cast<double>(timeline.ranks) * busy_sq)
          : 0.0;

  for (std::size_t id = 0; id < phases.size(); ++id) {
    if (!phase_seen[id]) continue;
    phases[id].label = timeline.labels[id];
    an.per_phase.push_back(std::move(phases[id]));
  }
  std::sort(an.per_phase.begin(), an.per_phase.end(),
            [](const PhaseAttribution& a, const PhaseAttribution& b) {
              return a.label < b.label;
            });

  // --- Resource-seconds -------------------------------------------------
  double wire_s = 0.0;
  for (const Wire& w : timeline.wires) {
    wire_s += std::max(0.0, w.arrival - w.depart);
  }
  an.resource_seconds_s = busy_sum + timeline.concurrent_fpga_s + wire_s;

  // --- Critical path ----------------------------------------------------
  int start_rank = 0;
  double finish = 0.0;
  for (const RankAttribution& ra : an.per_rank) {
    if (ra.finish_s > finish) {
      finish = ra.finish_s;
      start_rank = ra.rank;
    }
  }
  Walker walker(timeline, eps);
  walker.run(start_rank, finish);
  an.critical_path.reserve(walker.path.size());
  for (auto it = walker.path.rbegin(); it != walker.path.rend(); ++it) {
    an.critical_path.push_back(Segment{it->kind, it->rank, it->peer,
                                       std::string(it->label), it->start,
                                       it->end});
    const Segment& seg = an.critical_path.back();
    (seg.kind == "idle" ? an.cp_idle_s : an.critical_path_s) +=
        seg.duration();
  }

  // --- Invariants -------------------------------------------------------
  const double tol = mk * 1e-9 + 1e-12;
  an.cp_le_makespan = an.critical_path_s <= mk + tol;
  an.makespan_le_resource_seconds = mk <= an.resource_seconds_s + tol;
  return an;
}

void Analysis::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const auto flags = os.flags();
  const auto prec = os.precision();
  os << std::setprecision(9);
  os << "{\n";
  os << pad << "  \"ranks\": " << ranks << ",\n";
  os << pad << "  \"makespan_s\": " << makespan_s << ",\n";
  os << pad << "  \"critical_path_s\": " << critical_path_s << ",\n";
  os << pad << "  \"cp_idle_s\": " << cp_idle_s << ",\n";
  os << pad << "  \"resource_seconds_s\": " << resource_seconds_s << ",\n";
  os << pad << "  \"mean_utilization\": " << mean_utilization << ",\n";
  os << pad << "  \"imbalance_max_over_mean\": " << imbalance_max_over_mean
     << ",\n";
  os << pad << "  \"jain_fairness\": " << jain_fairness << ",\n";
  os << pad << "  \"invariants\": {"
     << "\"cp_le_makespan\": " << (cp_le_makespan ? "true" : "false")
     << ", \"makespan_le_resource_seconds\": "
     << (makespan_le_resource_seconds ? "true" : "false")
     << ", \"buckets_sum_to_makespan\": "
     << (buckets_sum_to_makespan ? "true" : "false")
     << ", \"max_bucket_sum_rel_err\": " << max_bucket_sum_rel_err << "},\n";
  os << pad << "  \"per_rank\": [\n";
  for (std::size_t i = 0; i < per_rank.size(); ++i) {
    const RankAttribution& ra = per_rank[i];
    os << pad << "    {\"rank\": " << ra.rank
       << ", \"finish_s\": " << ra.finish_s << ", \"cpu_s\": " << ra.cpu_s
       << ", \"fpga_s\": " << ra.fpga_s
       << ", \"transfer_visible_s\": " << ra.transfer_visible_s
       << ", \"transfer_hidden_s\": " << ra.transfer_hidden_s
       << ", \"fault_recovery_s\": " << ra.fault_recovery_s
       << ", \"wait_idle_s\": " << ra.wait_idle_s
       << ", \"utilization\": " << ra.utilization << '}'
       << (i + 1 < per_rank.size() ? "," : "") << '\n';
  }
  os << pad << "  ],\n";
  os << pad << "  \"per_phase\": [\n";
  for (std::size_t i = 0; i < per_phase.size(); ++i) {
    const PhaseAttribution& pa = per_phase[i];
    os << pad << "    {\"label\": \"" << json_escape(pa.label)
       << "\", \"cpu_s\": " << pa.cpu_s << ", \"fpga_s\": " << pa.fpga_s
       << ", \"transfer_visible_s\": " << pa.transfer_visible_s
       << ", \"transfer_hidden_s\": " << pa.transfer_hidden_s
       << ", \"fault_recovery_s\": " << pa.fault_recovery_s << '}'
       << (i + 1 < per_phase.size() ? "," : "") << '\n';
  }
  os << pad << "  ],\n";
  const std::vector<Segment> top = top_segments(8);
  os << pad << "  \"critical_path_top\": [\n";
  for (std::size_t i = 0; i < top.size(); ++i) {
    const Segment& seg = top[i];
    os << pad << "    {\"kind\": \"" << json_escape(seg.kind)
       << "\", \"rank\": " << seg.rank << ", \"peer\": " << seg.peer
       << ", \"label\": \"" << json_escape(seg.label)
       << "\", \"start_s\": " << seg.start
       << ", \"dur_s\": " << seg.duration() << ", \"share\": "
       << (makespan_s > 0.0 ? seg.duration() / makespan_s : 0.0) << '}'
       << (i + 1 < top.size() ? "," : "") << '\n';
  }
  os << pad << "  ],\n";
  os << pad << "  \"critical_path_segments\": " << critical_path.size()
     << "\n";
  os << pad << "}";
  os.flags(flags);
  os.precision(prec);
}

void Analysis::print(std::ostream& os) const {
  os << "  analysis: makespan " << std::setprecision(6) << makespan_s
     << " s, critical path " << critical_path_s << " s ("
     << critical_path.size() << " segments, idle " << cp_idle_s
     << " s), resource-seconds " << resource_seconds_s << "\n";
  os << "  rollup: mean util " << std::setprecision(3)
     << 100.0 * mean_utilization << "%, imbalance "
     << imbalance_max_over_mean << "x, fairness " << jain_fairness
     << (invariants_hold() ? "" : "  [INVARIANT VIOLATION]") << '\n';
  os << "  " << std::left << std::setw(6) << "rank" << std::right
     << std::setw(10) << "cpu_s" << std::setw(10) << "fpga_s" << std::setw(12)
     << "xfer_vis_s" << std::setw(12) << "xfer_hid_s" << std::setw(10)
     << "fault_s" << std::setw(10) << "idle_s" << std::setw(8) << "util"
     << '\n';
  for (const RankAttribution& ra : per_rank) {
    os << "  " << std::left << std::setw(6) << ra.rank << std::right
       << std::setprecision(4) << std::setw(10) << ra.cpu_s << std::setw(10)
       << ra.fpga_s << std::setw(12) << ra.transfer_visible_s << std::setw(12)
       << ra.transfer_hidden_s << std::setw(10) << ra.fault_recovery_s
       << std::setw(10) << ra.wait_idle_s << std::setw(7)
       << std::setprecision(3) << 100.0 * ra.utilization << '%' << '\n';
  }
  os << "  top critical-path segments:\n";
  for (const Segment& seg : top_segments(5)) {
    os << "    " << std::left << std::setw(9) << seg.kind;
    if (seg.kind == "wire") {
      os << "rank " << seg.rank << "->" << seg.peer;
    } else {
      os << "rank " << seg.rank << "    ";
    }
    os << "  " << std::setw(12) << seg.label << std::right
       << std::setprecision(4) << std::setw(10) << seg.duration() << " s  ("
       << std::setprecision(3)
       << (makespan_s > 0.0 ? 100.0 * seg.duration() / makespan_s : 0.0)
       << "%)\n";
  }
}

}  // namespace rcs::obs::cp
