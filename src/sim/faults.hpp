#pragma once
// Deterministic fault injection for the simulated hybrid cluster.
//
// A FaultPlan is pure data: a seeded, pre-sampled schedule of adversity —
// per-rank compute-slowdown windows (stragglers), link degradation/jitter
// windows, rank crashes at a simulated time, and transient bit-flips in FPGA
// result tiles. The plan never draws randomness at injection time: every
// event is fixed at construction (FaultPlan::generate seeds a common Rng;
// per-message jitter is a stateless SplitMix64 hash of the plan seed and the
// message's deterministic (src, dst, sequence) coordinates), so the same
// plan replays byte-identically across runs and RCS_THREADS settings.
//
// Injection points live in the layers that own the timing or the data:
//   * node::ComputeNode — stretches CPU/FPGA charges through
//     stretch_compute(), piecewise over the overlapping windows;
//   * net::Comm        — degrades/jitters transfer costs through
//     link_cost(), and throws net::RankFailed at the first communication
//     past crash_time();
//   * core::lu_functional / core::fw_functional — corrupt FPGA result tiles
//     (an opMM share's FPGA rows, an FPGA-assigned wave task) per
//     flip_for() via apply_bitflip().
//
// FaultStats is the one deterministic per-run ledger of injections and of
// what the tolerance side (ABFT, deadline receives, wave re-execution)
// reports back.

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/span2d.hpp"
#include "sim/engine.hpp"

namespace rcs::sim {

/// Compute slowdown (straggler) window: within [begin, end), rank `rank`'s
/// CPU work takes `cpu_factor` times longer and its FPGA work `fpga_factor`
/// times longer (factors >= 1; 1 = nominal rate).
struct SlowdownWindow {
  int rank = -1;
  SimTime begin = 0.0;
  SimTime end = 0.0;
  double cpu_factor = 1.0;
  double fpga_factor = 1.0;
};

/// Link degradation window: messages from `src` to `dst` (-1 = any rank on
/// that side) departing within [begin, end) see their bandwidth scaled by
/// `bw_factor` (0 < factor <= 1), `extra_latency_s` added per message, and
/// a deterministic per-message jitter uniform in [0, jitter_max_s).
struct LinkFault {
  int src = -1;
  int dst = -1;
  SimTime begin = 0.0;
  SimTime end = std::numeric_limits<SimTime>::infinity();
  double bw_factor = 1.0;
  SimTime extra_latency_s = 0.0;
  SimTime jitter_max_s = 0.0;
};

/// Fail-stop crash: rank `rank` dies at the first communication operation it
/// attempts at simulated time >= `at` (net::RankFailed).
struct RankCrash {
  int rank = -1;
  SimTime at = 0.0;
};

/// Transient bit-flip in an FPGA result tile: on rank `rank`'s `call`-th
/// FPGA result (0-based; opMM shares with b_f > 0 for LU, FPGA-assigned
/// wave tasks for FW), flip bit `bit` (0 = lsb .. 63 = sign) of the element at
/// normalized tile coordinates (row_u, col_u) in [0, 1).
struct BitFlip {
  int rank = -1;
  std::uint64_t call = 0;
  double row_u = 0.0;
  double col_u = 0.0;
  int bit = 52;
};

/// Effective per-message link parameters (see FaultPlan::link_cost).
struct LinkCost {
  SimTime latency_s = 0.0;
  double bytes_per_s = 1.0;
};

/// Deterministic per-run fault/recovery accounting. Every field is derived
/// from simulated quantities only, so two runs of the same plan produce
/// identical stats.
struct FaultStats {
  // Injection side.
  std::uint64_t bitflips_injected = 0;
  std::uint64_t slowdown_hits = 0;    // compute charges that got stretched
  double slowdown_added_s = 0.0;      // total stretch over nominal
  std::uint64_t link_hits = 0;        // messages that saw degraded links
  double link_added_s = 0.0;          // transfer seconds over nominal
  std::uint64_t crashes = 0;

  // Tolerance side.
  std::uint64_t checks = 0;              // ABFT / DMR verifications run
  std::uint64_t detected = 0;            // corrupted results detected
  std::uint64_t corrected_elements = 0;  // single-flip exact corrections
  std::uint64_t reissued_blocks = 0;     // full-tile/-task recomputes
  std::uint64_t straggler_timeouts = 0;  // deadline receives that gave up
  std::uint64_t straggler_reissues = 0;  // shares re-solved on survivors
  double recovery_cpu_s = 0.0;           // sim seconds of checks + repairs
  std::vector<double> mttr_s;            // per-recovery sim repair times

  FaultStats& operator+=(const FaultStats& o);

  /// Nearest-rank percentile of the recorded repair times, q in [0, 1]
  /// (0 when no recovery has happened yet).
  double mttr_percentile(double q) const;
};

/// Knobs for FaultPlan::generate — expected event counts and ranges; every
/// sampled quantity is uniform over its range.
struct FaultSpec {
  int ranks = 2;
  std::uint64_t seed = 1;
  SimTime horizon_s = 1.0;  // event times sampled in [0, horizon_s)

  int slowdown_windows = 0;
  double slowdown_factor_min = 2.0;
  double slowdown_factor_max = 8.0;
  SimTime slowdown_len_min_s = 0.0;  // 0 = horizon/8
  SimTime slowdown_len_max_s = 0.0;  // 0 = horizon/2

  int link_faults = 0;
  double link_bw_factor_min = 0.25;
  double link_bw_factor_max = 0.9;
  SimTime link_extra_latency_max_s = 0.0;
  SimTime link_jitter_max_s = 0.0;

  int crashes = 0;

  int bitflips = 0;
  std::uint64_t bitflip_max_call = 64;  // call ordinals sampled in [0, max)
  int bitflip_bit_min = 44;  // high-mantissa/exponent region: the relative
  int bitflip_bit_max = 62;  // perturbation stays far above checksum noise
};

/// A seeded, deterministic schedule of faults. Pure data + pure queries:
/// thread-safe to share read-only across ranks.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  /// Sample a plan from `spec` (seeded by spec.seed). Same spec, same plan.
  static FaultPlan generate(const FaultSpec& spec);

  /// Direct construction for targeted tests/experiments.
  void add_slowdown(const SlowdownWindow& w);
  void add_link_fault(const LinkFault& f);
  void add_crash(const RankCrash& c);
  void add_bitflip(const BitFlip& f);

  std::uint64_t seed() const { return seed_; }
  bool empty() const {
    return slowdowns_.empty() && links_.empty() && crashes_.empty() &&
           flips_.empty();
  }
  std::size_t slowdown_count() const { return slowdowns_.size(); }
  std::size_t link_fault_count() const { return links_.size(); }
  std::size_t crash_count() const { return crashes_.size(); }
  std::size_t bitflip_count() const { return flips_.size(); }

  /// Stretched duration of a compute charge on `rank` starting at `start`:
  /// piecewise integration over the slowdown windows the charge overlaps —
  /// work inside a window progresses `factor` times slower; work outside
  /// runs at the nominal rate. Returns `duration` unchanged when no window
  /// applies. `fpga` selects fpga_factor over cpu_factor.
  SimTime stretch_compute(int rank, SimTime start, SimTime duration,
                          bool fpga) const;

  /// Effective link parameters for message number `seq` from `src` to `dst`
  /// departing at `depart`, given the nominal `base` parameters: active
  /// LinkFault windows scale bandwidth (factors multiply), add latency, and
  /// contribute a deterministic jitter hashed from (seed, src, dst, seq).
  LinkCost link_cost(int src, int dst, SimTime depart, const LinkCost& base,
                     std::uint64_t seq) const;

  /// Simulated time `rank` fail-stops (+infinity when it never crashes).
  SimTime crash_time(int rank) const;

  /// The flip scheduled for `rank`'s `call`-th FPGA result, or nullptr.
  const BitFlip* flip_for(int rank, std::uint64_t call) const;

  const std::vector<SlowdownWindow>& slowdowns() const { return slowdowns_; }
  const std::vector<LinkFault>& link_faults() const { return links_; }
  const std::vector<RankCrash>& crashes() const { return crashes_; }
  const std::vector<BitFlip>& bitflips() const { return flips_; }

 private:
  std::uint64_t seed_ = 0;
  std::vector<SlowdownWindow> slowdowns_;
  std::vector<LinkFault> links_;
  std::vector<RankCrash> crashes_;
  std::vector<BitFlip> flips_;
};

/// XOR bit `flip.bit` of the element of `tile` addressed by the flip's
/// normalized coordinates. Returns the flipped element's (row, col).
std::pair<std::size_t, std::size_t> apply_bitflip(const BitFlip& flip,
                                                  Span2D<double> tile);

}  // namespace rcs::sim
