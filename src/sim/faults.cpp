#include "sim/faults.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace rcs::sim {

FaultStats& FaultStats::operator+=(const FaultStats& o) {
  bitflips_injected += o.bitflips_injected;
  slowdown_hits += o.slowdown_hits;
  slowdown_added_s += o.slowdown_added_s;
  link_hits += o.link_hits;
  link_added_s += o.link_added_s;
  checks += o.checks;
  detected += o.detected;
  corrected_elements += o.corrected_elements;
  reissued_blocks += o.reissued_blocks;
  straggler_timeouts += o.straggler_timeouts;
  straggler_reissues += o.straggler_reissues;
  recovery_cpu_s += o.recovery_cpu_s;
  mttr_s.insert(mttr_s.end(), o.mttr_s.begin(), o.mttr_s.end());
  return *this;
}

double FaultStats::mttr_percentile(double q) const {
  if (mttr_s.empty()) return 0.0;
  RCS_CHECK_MSG(q >= 0.0 && q <= 1.0, "percentile out of [0, 1]");
  std::vector<double> sorted = mttr_s;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

FaultPlan FaultPlan::generate(const FaultSpec& spec) {
  RCS_CHECK_MSG(spec.ranks > 0, "FaultSpec.ranks must be positive");
  RCS_CHECK_MSG(spec.horizon_s > 0.0, "FaultSpec.horizon_s must be positive");
  FaultPlan plan(spec.seed);
  Rng rng(spec.seed);

  const SimTime len_min =
      spec.slowdown_len_min_s > 0 ? spec.slowdown_len_min_s : spec.horizon_s / 8;
  const SimTime len_max =
      spec.slowdown_len_max_s > 0 ? spec.slowdown_len_max_s : spec.horizon_s / 2;
  for (int i = 0; i < spec.slowdown_windows; ++i) {
    SlowdownWindow w;
    w.rank = static_cast<int>(rng.uniform_index(spec.ranks));
    w.begin = rng.uniform(0.0, spec.horizon_s);
    w.end = w.begin + rng.uniform(len_min, len_max);
    w.cpu_factor = rng.uniform(spec.slowdown_factor_min, spec.slowdown_factor_max);
    w.fpga_factor =
        rng.uniform(spec.slowdown_factor_min, spec.slowdown_factor_max);
    plan.add_slowdown(w);
  }

  for (int i = 0; i < spec.link_faults; ++i) {
    LinkFault f;
    f.src = static_cast<int>(rng.uniform_index(spec.ranks));
    f.dst = -1;
    f.begin = rng.uniform(0.0, spec.horizon_s);
    f.end = f.begin + rng.uniform(len_min, len_max);
    f.bw_factor = rng.uniform(spec.link_bw_factor_min, spec.link_bw_factor_max);
    f.extra_latency_s = spec.link_extra_latency_max_s > 0
                            ? rng.uniform(0.0, spec.link_extra_latency_max_s)
                            : 0.0;
    f.jitter_max_s = spec.link_jitter_max_s;
    plan.add_link_fault(f);
  }

  for (int i = 0; i < spec.bitflips; ++i) {
    BitFlip f;
    f.rank = static_cast<int>(rng.uniform_index(spec.ranks));
    f.call = rng.uniform_index(spec.bitflip_max_call);
    f.row_u = rng.uniform();
    f.col_u = rng.uniform();
    f.bit = spec.bitflip_bit_min +
            static_cast<int>(rng.uniform_index(
                spec.bitflip_bit_max - spec.bitflip_bit_min + 1));
    plan.add_bitflip(f);
  }
  return plan;
}

void FaultPlan::add_slowdown(const SlowdownWindow& w) {
  RCS_CHECK_MSG(w.rank >= 0, "SlowdownWindow.rank must be >= 0");
  RCS_CHECK_MSG(w.end > w.begin, "SlowdownWindow must have positive length");
  RCS_CHECK_MSG(w.cpu_factor >= 1.0 && w.fpga_factor >= 1.0,
                "slowdown factors must be >= 1");
  slowdowns_.push_back(w);
}

void FaultPlan::add_link_fault(const LinkFault& f) {
  RCS_CHECK_MSG(f.bw_factor > 0.0 && f.bw_factor <= 1.0,
                "LinkFault.bw_factor must be in (0, 1]");
  RCS_CHECK_MSG(f.extra_latency_s >= 0.0 && f.jitter_max_s >= 0.0,
                "LinkFault latencies must be non-negative");
  RCS_CHECK_MSG(f.end > f.begin, "LinkFault must have positive length");
  links_.push_back(f);
}

void FaultPlan::add_bitflip(const BitFlip& f) {
  RCS_CHECK_MSG(f.rank >= 0, "BitFlip.rank must be >= 0");
  RCS_CHECK_MSG(f.bit >= 0 && f.bit < 64, "BitFlip.bit must be in [0, 64)");
  RCS_CHECK_MSG(f.row_u >= 0.0 && f.row_u < 1.0 && f.col_u >= 0.0 &&
                    f.col_u < 1.0,
                "BitFlip coordinates must be normalized to [0, 1)");
  flips_.push_back(f);
}

SimTime FaultPlan::stretch_compute(int rank, SimTime start, SimTime duration,
                                   bool fpga) const {
  if (duration <= 0.0 || slowdowns_.empty()) return duration;
  // Walk simulated time forward, consuming `remaining` nominal work. Inside
  // the strongest window covering the cursor, work progresses 1/factor as
  // fast; factors of overlapping windows multiply (each contention source
  // slows the node independently).
  SimTime t = start;
  SimTime remaining = duration;
  while (remaining > 0.0) {
    double factor = 1.0;
    SimTime next_edge = std::numeric_limits<SimTime>::infinity();
    for (const SlowdownWindow& w : slowdowns_) {
      if (w.rank != rank) continue;
      if (t >= w.begin && t < w.end) {
        factor *= fpga ? w.fpga_factor : w.cpu_factor;
        next_edge = std::min(next_edge, w.end);
      } else if (w.begin > t) {
        next_edge = std::min(next_edge, w.begin);
      }
    }
    if (!std::isfinite(next_edge)) {
      t += remaining * factor;
      break;
    }
    // Nominal work that fits before the next window edge at this rate.
    const SimTime slice = (next_edge - t) / factor;
    if (slice >= remaining) {
      t += remaining * factor;
      break;
    }
    remaining -= slice;
    t = next_edge;
  }
  return t - start;
}

LinkCost FaultPlan::link_cost(int src, int dst, SimTime depart,
                              const LinkCost& base, std::uint64_t seq) const {
  LinkCost out = base;
  double jitter_max = 0.0;
  for (const LinkFault& f : links_) {
    if (f.src != -1 && f.src != src) continue;
    if (f.dst != -1 && f.dst != dst) continue;
    if (depart < f.begin || depart >= f.end) continue;
    out.bytes_per_s *= f.bw_factor;
    out.latency_s += f.extra_latency_s;
    jitter_max = std::max(jitter_max, f.jitter_max_s);
  }
  if (jitter_max > 0.0) {
    // Stateless hash of the message coordinates: independent of thread
    // interleaving and of how many other messages the plan touched.
    std::uint64_t h = seed_;
    h ^= 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(src);
    h = splitmix64(h);
    h ^= static_cast<std::uint64_t>(dst) * 0xbf58476d1ce4e5b9ULL;
    h = splitmix64(h);
    h ^= seq * 0x94d049bb133111ebULL;
    h = splitmix64(h);
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0, 1)
    out.latency_s += u * jitter_max;
  }
  return out;
}

const BitFlip* FaultPlan::flip_for(int rank, std::uint64_t call) const {
  for (const BitFlip& f : flips_)
    if (f.rank == rank && f.call == call) return &f;
  return nullptr;
}

std::pair<std::size_t, std::size_t> apply_bitflip(const BitFlip& flip,
                                                  Span2D<double> tile) {
  RCS_CHECK_MSG(tile.rows() > 0 && tile.cols() > 0,
                "apply_bitflip: empty tile");
  const std::size_t r = std::min(
      tile.rows() - 1, static_cast<std::size_t>(flip.row_u *
                                                static_cast<double>(tile.rows())));
  const std::size_t c = std::min(
      tile.cols() - 1, static_cast<std::size_t>(flip.col_u *
                                                static_cast<double>(tile.cols())));
  std::uint64_t bits = std::bit_cast<std::uint64_t>(tile(r, c));
  bits ^= (1ULL << flip.bit);
  tile(r, c) = std::bit_cast<double>(bits);
  return {r, c};
}

}  // namespace rcs::sim
