#include "obs/critpath.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "obs/trace.hpp"

namespace rcs::obs::cp {

std::vector<Segment> Analysis::top_segments(std::size_t k) const {
  // Ranks a before b. The path index breaks the last ties, so this is the
  // order a stable sort of the path by the first three keys gives.
  const auto before = [this](std::size_t a, std::size_t b) {
    const Segment& x = critical_path[a];
    const Segment& y = critical_path[b];
    if (x.duration() != y.duration()) return x.duration() > y.duration();
    if (x.start != y.start) return x.start < y.start;
    if (x.rank != y.rank) return x.rank < y.rank;
    return a < b;
  };
  // A heap of the k best seen so far, the last-ranked on top.
  std::vector<std::size_t> best;
  best.reserve(std::min(k, critical_path.size()));
  for (std::size_t i = 0; i < critical_path.size() && k > 0; ++i) {
    if (best.size() < k) {
      best.push_back(i);
      std::push_heap(best.begin(), best.end(), before);
    } else if (before(i, best.front())) {
      std::pop_heap(best.begin(), best.end(), before);
      best.back() = i;
      std::push_heap(best.begin(), best.end(), before);
    }
  }
  std::sort_heap(best.begin(), best.end(), before);
  std::vector<Segment> out;
  out.reserve(best.size());
  for (const std::size_t i : best) out.push_back(critical_path[i]);
  return out;
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
