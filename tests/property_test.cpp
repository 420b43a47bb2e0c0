// Property-based suites across randomized configurations: partition-solver
// invariants over random systems, MiniMPI communication fuzzing with
// determinism checks, IEEE-754 boundary scans, and schedule-simulator
// monotonicity properties.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/rcs.hpp"

namespace core = rcs::core;
namespace net = rcs::net;
namespace fp = rcs::fparith;
using core::SystemParams;

namespace {

/// A random but physically sensible reconfigurable computing system.
SystemParams random_system(rcs::Rng& rng) {
  SystemParams sys = SystemParams::cray_xd1();
  sys.p = 2 + static_cast<int>(rng.uniform_index(7));  // 2..8 nodes
  rcs::node::GppModel gpp(1e9);
  gpp.set_rate(rcs::node::CpuKernel::Dgemm, rng.uniform(1e9, 8e9));
  gpp.set_rate(rcs::node::CpuKernel::Dgetrf, rng.uniform(1e9, 6e9));
  gpp.set_rate(rcs::node::CpuKernel::Dtrsm, rng.uniform(1e9, 6e9));
  gpp.set_rate(rcs::node::CpuKernel::FwBlock, rng.uniform(5e7, 1e9));
  sys.gpp = gpp;
  sys.mm_fpga.pe_count = 4 << rng.uniform_index(3);  // 4, 8, 16
  sys.mm_fpga.clock_hz = rng.uniform(80e6, 300e6);
  sys.mm_fpga.dram_bytes_per_s = sys.mm_fpga.clock_hz * 8.0;
  sys.fw_fpga.pe_count = sys.mm_fpga.pe_count;
  sys.fw_fpga.clock_hz = rng.uniform(80e6, 300e6);
  sys.fw_fpga.dram_bytes_per_s = sys.fw_fpga.clock_hz * 8.0;
  sys.network.bytes_per_s = rng.uniform(0.5e9, 8e9);
  return sys;
}

class RandomSystems : public ::testing::TestWithParam<int> {};

TEST_P(RandomSystems, MmPartitionInvariants) {
  rcs::Rng rng(9000 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const SystemParams sys = random_system(rng);
    const long long k = sys.mm_fpga.pe_count;
    const long long b = k * (10 + static_cast<long long>(rng.uniform_index(300)));
    const auto part = core::solve_mm_partition(sys, b);
    // Structural invariants.
    ASSERT_GE(part.b_f, 0);
    ASSERT_LE(part.b_f, b);
    ASSERT_EQ(part.b_f % k, 0);
    ASSERT_EQ(part.b_f + part.b_p, b);
    ASSERT_GE(part.t_f_stripe, 0.0);
    ASSERT_GE(part.t_p_stripe, 0.0);
    // Optimality: no k-step neighbour has a strictly better stripe period.
    const double chosen = part.b_f == 0
                              ? core::mm_partition_at(sys, b, 0).t_p_stripe
                              : part.stripe_period_seconds();
    for (const long long nb : {part.b_f - k, part.b_f + k}) {
      if (nb < 0 || nb > b) continue;
      const auto alt = core::mm_partition_at(sys, b, nb);
      const double alt_period =
          nb == 0 ? alt.t_p_stripe : alt.stripe_period_seconds();
      ASSERT_GE(alt_period, chosen - 1e-15)
          << "p=" << sys.p << " b=" << b << " b_f=" << part.b_f;
    }
  }
}

TEST_P(RandomSystems, FwPartitionInvariants) {
  rcs::Rng rng(9100 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const SystemParams sys = random_system(rng);
    const long long b = 32 + 16 * static_cast<long long>(rng.uniform_index(8));
    const long long L = 2 + static_cast<long long>(rng.uniform_index(30));
    const long long n = b * sys.p * L;
    const auto part = core::solve_fw_partition(sys, n, b);
    ASSERT_EQ(part.l1 + part.l2, part.ops_per_phase);
    ASSERT_GE(part.l1, 0);
    ASSERT_GE(part.l2, 0);
    // The Eq. 6 solution's residual is within one task swap of optimal.
    for (const long long alt_l1 : {part.l1 - 1, part.l1 + 1}) {
      if (alt_l1 < 0 || alt_l1 > part.ops_per_phase) continue;
      const auto alt = core::fw_partition_at(sys, n, b, alt_l1);
      ASSERT_GE(std::fabs(alt.residual), std::fabs(part.residual) - 1e-12);
    }
  }
}

TEST_P(RandomSystems, PredictionNeverExceedsSimulatedLu) {
  rcs::Rng rng(9200 + GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    const SystemParams sys = random_system(rng);
    core::LuConfig cfg;
    cfg.b = sys.mm_fpga.pe_count * 50;
    cfg.n = cfg.b * (3 + static_cast<long long>(rng.uniform_index(6)));
    cfg.mode = core::DesignMode::Hybrid;
    const auto pred = core::predict_lu(sys, cfg);
    const auto rep = core::lu_functional(sys, cfg, {});
    // §4.5's prediction assumes perfect overlap: it lower-bounds the
    // executed schedule.
    ASSERT_LE(pred.latency_seconds(), rep.run.seconds * (1.0 + 1e-9))
        << "p=" << sys.p << " n=" << cfg.n << " b=" << cfg.b;
  }
}

TEST_P(RandomSystems, FwIterationCountsComposeLinearly) {
  rcs::Rng rng(9300 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const SystemParams sys = random_system(rng);
    core::FwConfig cfg;
    cfg.b = 64;
    cfg.n = cfg.b * sys.p * 4;
    cfg.mode = core::DesignMode::Hybrid;
    auto first = [&](int iterations) {
      core::FwConfig c = cfg;
      c.max_iterations = iterations;
      return core::fw_functional(sys, c, {}).run.seconds;
    };
    const double full = core::fw_functional(sys, cfg, {}).run.seconds;
    const double one = first(1);
    const double nb = static_cast<double>(cfg.n / cfg.b);
    // Iterations are identical in structure, whichever rank owns one, and
    // the barrier separates them: the total is the sum, up to the skew the
    // barrier's p one-byte tokens leave between ranks.
    const double tokens = static_cast<double>(sys.p) *
                          sys.network.transfer_time(1);
    ASSERT_NEAR(first(2), 2.0 * one, 1e-9 * full);
    ASSERT_NEAR(full, nb * one, nb * tokens);
  }
}

TEST_P(RandomSystems, MmCostOnlyMonotoneInEngineSpeed) {
  // Making any engine faster never slows the single-node hybrid multiply.
  rcs::Rng rng(9400 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    SystemParams sys = random_system(rng);
    sys.p = 1;
    core::MmConfig cfg;
    cfg.b = sys.mm_fpga.pe_count * 60;
    cfg.n = cfg.b;
    cfg.mode = core::DesignMode::Hybrid;
    auto seconds = [&](const SystemParams& s) {
      return core::mm_functional(s, cfg, {}, {}).run.seconds;
    };
    const double base = seconds(sys);
    SystemParams faster_cpu = sys;
    faster_cpu.gpp.set_rate(
        rcs::node::CpuKernel::Dgemm,
        2.0 * sys.gpp.sustained(rcs::node::CpuKernel::Dgemm));
    ASSERT_LE(seconds(faster_cpu), base * (1.0 + 1e-9));
    SystemParams faster_fpga = sys;
    faster_fpga.mm_fpga.clock_hz *= 2.0;
    faster_fpga.mm_fpga.dram_bytes_per_s *= 2.0;
    ASSERT_LE(seconds(faster_fpga), base * (1.0 + 1e-9));
  }
}

TEST_P(RandomSystems, CholeskyHybridNeverLosesToBothBaselines) {
  rcs::Rng rng(9500 + GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const SystemParams sys = random_system(rng);
    core::CholConfig cfg;
    cfg.b = sys.mm_fpga.pe_count * 40;
    cfg.n = cfg.b * 4;
    auto at = [&](core::DesignMode m) {
      core::CholConfig c = cfg;
      c.mode = m;
      return core::cholesky_functional(sys, c, {}).run.seconds;
    };
    const double hybrid = at(core::DesignMode::Hybrid);
    const double best_baseline = std::min(
        at(core::DesignMode::ProcessorOnly), at(core::DesignMode::FpgaOnly));
    // Eq. 4's solution space includes both endpoints, so the hybrid can
    // always fall back to the better single engine — up to schedule
    // effects: the partition optimizes the steady-state stripe period, not
    // the whole sender/worker pipeline, so a small end-to-end slip is
    // possible (observed < 1% across random systems; assert 5%).
    ASSERT_LE(hybrid, best_baseline * 1.05)
        << "p=" << sys.p << " b=" << cfg.b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystems, ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// MiniMPI fuzzing

class MiniMpiFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MiniMpiFuzz, RandomTrafficIsDeterministicAndLossless) {
  // Every rank sends a random (but seed-determined) set of messages to
  // every other rank, then receives exactly what it expects; the whole
  // exchange must produce identical simulated clocks across repeats.
  const int seed = GetParam();
  auto run_once = [&](std::vector<double>& clocks) {
    net::NetworkParams np;
    np.bytes_per_s = 1e9;
    const int p = 3 + seed % 3;
    net::World world(p, np);
    world.run([&](net::Comm& comm) {
      rcs::Rng rng(1000 * seed + comm.rank());
      // Phase 1: everyone sends count[me][dst] messages tagged by index.
      for (int dst = 0; dst < comm.size(); ++dst) {
        if (dst == comm.rank()) continue;
        rcs::Rng pair_rng(7777 + 100 * comm.rank() + dst);
        const int count = 1 + static_cast<int>(pair_rng.uniform_index(5));
        for (int i = 0; i < count; ++i) {
          std::vector<double> payload(
              1 + pair_rng.uniform_index(64),
              static_cast<double>(comm.rank() * 1000 + i));
          comm.send_doubles(dst, 100 + i, payload.data(), payload.size());
        }
      }
      // Phase 2: receive them (any source order; per-source tags ordered).
      for (int src = 0; src < comm.size(); ++src) {
        if (src == comm.rank()) continue;
        rcs::Rng pair_rng(7777 + 100 * src + comm.rank());
        const int count = 1 + static_cast<int>(pair_rng.uniform_index(5));
        for (int i = 0; i < count; ++i) {
          const auto msg = comm.recv(src, 100 + i);
          const auto vals = msg.as_doubles();
          ASSERT_EQ(vals.size(), 1 + pair_rng.uniform_index(64));
          ASSERT_EQ(vals[0], static_cast<double>(src * 1000 + i));
        }
      }
      comm.barrier();
    });
    clocks.clear();
    for (int r = 0; r < p; ++r) {
      clocks.push_back(world.comm(r).clock().now());
    }
  };
  std::vector<double> c1, c2;
  run_once(c1);
  run_once(c2);
  ASSERT_EQ(c1, c2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MiniMpiFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// IEEE-754 boundary scan: operand pairs straddling exponent boundaries,
// where rounding carries and subnormal transitions live.

TEST(FparithBoundary, PowerOfTwoNeighbourhoods) {
  for (int e : {-1022, -512, -53, -1, 0, 1, 52, 511, 1023}) {
    const double base = std::ldexp(1.0, e);
    const double ulp = std::ldexp(1.0, e - 52);
    for (int da = -3; da <= 3; ++da) {
      for (int db = -3; db <= 3; ++db) {
        const double a = base + da * ulp;
        const double b = base + db * ulp;
        EXPECT_EQ(fp::to_bits(a + b), fp::to_bits(fp::add(a, b)))
            << "e=" << e << " da=" << da << " db=" << db;
        EXPECT_EQ(fp::to_bits(a - b), fp::to_bits(fp::sub(a, b)));
        const double pm = a * b;
        if (!std::isnan(pm)) {
          EXPECT_EQ(fp::to_bits(pm), fp::to_bits(fp::mul(a, b)));
        }
      }
    }
  }
}

TEST(FparithBoundary, SubnormalTransitionScan) {
  const double dmin = std::numeric_limits<double>::denorm_min();
  const double nmin = std::numeric_limits<double>::min();
  for (int i = -4; i <= 4; ++i) {
    const double near_min = nmin + i * dmin;
    EXPECT_EQ(fp::to_bits(near_min + dmin), fp::to_bits(fp::add(near_min, dmin)));
    EXPECT_EQ(fp::to_bits(near_min - dmin), fp::to_bits(fp::sub(near_min, dmin)));
    EXPECT_EQ(fp::to_bits(near_min * 0.5), fp::to_bits(fp::mul(near_min, 0.5)));
  }
}

}  // namespace
