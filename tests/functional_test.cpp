// Tests for the functional plane: the distributed hybrid designs must
// produce results bit-identical to the sequential references while their
// virtual-time reports stay self-consistent.

#include <string>

#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "sim/trace.hpp"

namespace core = rcs::core;
namespace la = rcs::linalg;
namespace gr = rcs::graph;
using core::DesignMode;
using core::SystemParams;

namespace {

/// XD1-parameterized system scaled to p nodes (tests use small worlds).
SystemParams xd1_p(int p) {
  SystemParams sys = SystemParams::cray_xd1();
  sys.p = p;
  return sys;
}

core::LuConfig lu_cfg(long long n, long long b, DesignMode mode) {
  core::LuConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = mode;
  return cfg;
}

core::FwConfig fw_cfg(long long n, long long b, DesignMode mode) {
  core::FwConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = mode;
  return cfg;
}

/// Fraction of the wire time of the receives traced under `phase` that hid
/// behind compute, from the critical-path analysis of a traced run (-1 when
/// the phase received nothing).
double overlap_efficiency(const rcs::sim::TraceRecorder& rec, int p,
                          double makespan, const std::string& phase) {
  for (const auto& pa : core::analyze_run(rec, p, makespan).per_phase) {
    if (pa.label == phase && pa.transfer_wire_s > 0.0) {
      return pa.transfer_hidden_s / pa.transfer_wire_s;
    }
  }
  return -1.0;
}

// ---------------------------------------------------------------------------
// LU functional correctness

class LuFunctional
    : public ::testing::TestWithParam<std::tuple<int, int, int, DesignMode>> {
};

TEST_P(LuFunctional, BitIdenticalToSequentialBlockedLu) {
  const auto [n, b, p, mode] = GetParam();
  const la::Matrix a = la::diagonally_dominant(n, 100 + n + b + p);
  la::Matrix ref = a;
  la::getrf_blocked(ref.view(), b);

  const auto res = core::lu_functional(xd1_p(p), lu_cfg(n, b, mode), a);
  EXPECT_TRUE(la::bit_equal(res.factored.view(), ref.view()))
      << "n=" << n << " b=" << b << " p=" << p << " mode="
      << core::to_string(mode)
      << " max-diff=" << la::max_abs_diff(res.factored.view(), ref.view());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LuFunctional,
    ::testing::Values(
        std::tuple{32, 8, 2, DesignMode::Hybrid},
        std::tuple{48, 16, 3, DesignMode::Hybrid},
        std::tuple{64, 16, 4, DesignMode::Hybrid},
        std::tuple{96, 24, 6, DesignMode::Hybrid},
        std::tuple{64, 16, 4, DesignMode::ProcessorOnly},
        std::tuple{64, 16, 4, DesignMode::FpgaOnly},
        std::tuple{40, 8, 5, DesignMode::Hybrid},
        std::tuple{16, 16, 2, DesignMode::Hybrid}),  // single block
    [](const auto& pinfo) {
      return "n" + std::to_string(std::get<0>(pinfo.param)) + "b" +
             std::to_string(std::get<1>(pinfo.param)) + "p" +
             std::to_string(std::get<2>(pinfo.param)) +
             std::string(core::to_string(std::get<3>(pinfo.param)))
                 .substr(0, 4);
    });

TEST(LuFunctionalDetail, PackedSharesMatchBlockedLu) {
  // Workers pack each stripe once per iteration and reuse it across tasks:
  // the factors stay getrf_blocked's at lu_dense's split (b = 64, p = 3,
  // b_f = 32), with k = b = 300 above the engine's KC, with an explicit b_f
  // off the MR grid, at p = 6 (worker widths 13 and 12; the solver gives
  // b_f = 0 there, so b_f = 24 is set), and with the FPGA rows on the
  // soft-FP cores.
  struct Case {
    long long n, b;
    int p;
    long long b_f;  // -1 = solve
    bool soft;
  };
  for (const Case& k : {Case{256, 64, 3, -1, false}, Case{900, 300, 3, -1, false},
                        Case{256, 64, 3, 30, false}, Case{256, 64, 6, 24, false},
                        Case{64, 16, 3, 5, true}}) {
    const la::Matrix a = la::diagonally_dominant(
        static_cast<std::size_t>(k.n), 500 + static_cast<int>(k.b));
    la::Matrix ref = a;
    la::getrf_blocked(ref.view(), static_cast<std::size_t>(k.b));
    core::LuConfig cfg = lu_cfg(k.n, k.b, DesignMode::Hybrid);
    cfg.b_f = k.b_f;
    const auto res = core::lu_functional(xd1_p(k.p), cfg, a, k.soft);
    EXPECT_GT(res.partition.b_f, 0) << "n=" << k.n << " p=" << k.p;
    EXPECT_TRUE(la::bit_equal(res.factored.view(), ref.view()))
        << "n=" << k.n << " b=" << k.b << " p=" << k.p << " b_f=" << k.b_f
        << " soft=" << k.soft;
  }
}

TEST(LuFunctionalDetail, AllModesProduceIdenticalNumbers) {
  const la::Matrix a = la::diagonally_dominant(48, 7);
  const auto h =
      core::lu_functional(xd1_p(3), lu_cfg(48, 16, DesignMode::Hybrid), a);
  const auto c = core::lu_functional(
      xd1_p(3), lu_cfg(48, 16, DesignMode::ProcessorOnly), a);
  const auto f =
      core::lu_functional(xd1_p(3), lu_cfg(48, 16, DesignMode::FpgaOnly), a);
  EXPECT_TRUE(la::bit_equal(h.factored.view(), c.factored.view()));
  EXPECT_TRUE(la::bit_equal(h.factored.view(), f.factored.view()));
}

TEST(LuFunctionalDetail, LookaheadMatchesBlockingBitExact) {
  for (const auto& [n, b, p] : {std::tuple{64LL, 16LL, 3}, {96LL, 16LL, 4},
                                {48LL, 8LL, 5}}) {
    const la::Matrix a = la::diagonally_dominant(
        static_cast<std::size_t>(n), 200 + static_cast<int>(n));
    core::LuConfig cfg = lu_cfg(n, b, DesignMode::Hybrid);
    const auto blocking = core::lu_functional(xd1_p(p), cfg, a);
    cfg.lookahead = true;
    rcs::sim::TraceRecorder rec(true);
    const auto ahead = core::lu_functional(xd1_p(p), cfg, a, false, &rec);
    // The pipeline moves the schedule, never the data.
    EXPECT_TRUE(
        la::bit_equal(blocking.factored.view(), ahead.factored.view()))
        << "n=" << n << " p=" << p;
    // Barrier elimination + overlap must not slow the simulated run.
    EXPECT_LE(ahead.run.seconds, blocking.run.seconds + 1e-12)
        << "n=" << n << " p=" << p;
    EXPECT_GE(overlap_efficiency(rec, p, ahead.run.seconds, "opMM"), 0.0);
    EXPECT_NE(ahead.run.design.find("+lookahead"), std::string::npos);
  }

  // At b = 64 each opMM task computes longer than its stripes take to
  // transfer, so stripes the panel fans out over its NIC arrive while the
  // worker still computes on earlier ones: lookahead hides more of the
  // stripe time than the blocking schedule, whose CPU-serialized fan-out
  // already hides half of it. (At tiny b the stream is producer-bound — the
  // panel's CPU gates the stripe departs — and nothing can be hidden; that
  // is the model's physics, not a schedule defect.)
  const la::Matrix a = la::diagonally_dominant(256, 456);
  core::LuConfig cfg = lu_cfg(256, 64, DesignMode::Hybrid);
  rcs::sim::TraceRecorder blocking_rec(true);
  const auto blocking =
      core::lu_functional(xd1_p(3), cfg, a, false, &blocking_rec);
  cfg.lookahead = true;
  rcs::sim::TraceRecorder ahead_rec(true);
  const auto ahead = core::lu_functional(xd1_p(3), cfg, a, false, &ahead_rec);
  EXPECT_GT(overlap_efficiency(ahead_rec, 3, ahead.run.seconds, "opMM"),
            overlap_efficiency(blocking_rec, 3, blocking.run.seconds, "opMM"));
}

TEST(LuFunctionalDetail, SoftFpMatchesNative) {
  const la::Matrix a = la::diagonally_dominant(32, 9);
  const auto native =
      core::lu_functional(xd1_p(3), lu_cfg(32, 8, DesignMode::Hybrid), a,
                          /*use_soft_fp=*/false);
  const auto soft =
      core::lu_functional(xd1_p(3), lu_cfg(32, 8, DesignMode::Hybrid), a,
                          /*use_soft_fp=*/true);
  EXPECT_TRUE(la::bit_equal(native.factored.view(), soft.factored.view()));
}

TEST(LuFunctionalDetail, ResidualIsTiny) {
  const la::Matrix a = la::diagonally_dominant(64, 11);
  const auto res =
      core::lu_functional(xd1_p(4), lu_cfg(64, 16, DesignMode::Hybrid), a);
  EXPECT_LT(la::lu_residual(a.view(), res.factored.view()), 1e-12);
}

TEST(LuFunctionalDetail, ReportIsSelfConsistent) {
  const la::Matrix a = la::diagonally_dominant(64, 13);
  core::LuConfig cfg = lu_cfg(64, 16, DesignMode::Hybrid);
  cfg.b_f = 8;  // force a genuine split (Eq. 4 picks all-CPU at tiny b)
  const auto res = core::lu_functional(xd1_p(4), cfg, a);
  EXPECT_GT(res.run.seconds, 0.0);
  EXPECT_GT(res.run.total_flops, 0.0);
  EXPECT_GT(res.run.cpu_flops, 0.0);
  EXPECT_GT(res.run.fpga_flops, 0.0);  // hybrid used both sides
  EXPECT_GT(res.run.bytes_on_network, 0u);
  EXPECT_GT(res.run.coordination_events, 0u);
  EXPECT_GT(res.run.gflops(), 0.0);
  EXPECT_EQ(res.partition.b_f + res.partition.b_p, 16);
  EXPECT_GE(res.l, 1);
}

TEST(LuFunctionalDetail, ProcessorOnlyNeverTouchesFpga) {
  const la::Matrix a = la::diagonally_dominant(48, 17);
  const auto res = core::lu_functional(
      xd1_p(3), lu_cfg(48, 16, DesignMode::ProcessorOnly), a);
  EXPECT_EQ(res.run.fpga_flops, 0.0);
  EXPECT_EQ(res.run.coordination_events, 0u);
  EXPECT_EQ(res.run.fpga_busy_seconds, 0.0);
}

TEST(LuFunctionalDetail, HybridIsFasterThanBaselinesInSimTime) {
  // Use a block size large enough that opMM dominates.
  const la::Matrix a = la::diagonally_dominant(96, 19);
  const auto h =
      core::lu_functional(xd1_p(4), lu_cfg(96, 24, DesignMode::Hybrid), a);
  const auto f =
      core::lu_functional(xd1_p(4), lu_cfg(96, 24, DesignMode::FpgaOnly), a);
  EXPECT_LT(h.run.seconds, f.run.seconds);
}

TEST(LuFunctionalDetail, ExplicitPartitionOverridesSolver) {
  const la::Matrix a = la::diagonally_dominant(32, 23);
  core::LuConfig cfg = lu_cfg(32, 16, DesignMode::Hybrid);
  cfg.b_f = 8;
  cfg.l = 2;
  const auto res = core::lu_functional(xd1_p(3), cfg, a);
  EXPECT_EQ(res.partition.b_f, 8);
  EXPECT_EQ(res.l, 2);
  la::Matrix ref = a;
  la::getrf_blocked(ref.view(), 16);
  EXPECT_TRUE(la::bit_equal(res.factored.view(), ref.view()));
}

TEST(LuFunctionalDetail, DmaFanoutSameResultLessSenderTime) {
  const la::Matrix a = la::diagonally_dominant(96, 21);
  core::LuConfig cfg = lu_cfg(96, 24, DesignMode::Hybrid);
  cfg.b_f = 8;
  cfg.l = 2;
  core::LuConfig dma = cfg;
  dma.fanout = core::SendFanout::PaperSingle;
  const auto serial = core::lu_functional(xd1_p(4), cfg, a);
  const auto viadma = core::lu_functional(xd1_p(4), dma, a);
  EXPECT_TRUE(la::bit_equal(serial.factored.view(), viadma.factored.view()));
  // DMA distribution frees the panel CPU: never slower end to end.
  EXPECT_LE(viadma.run.seconds, serial.run.seconds * 1.0001);
}

TEST(LuFunctionalDetail, TraceCapturesAllNodes) {
  const la::Matrix a = la::diagonally_dominant(48, 23);
  core::LuConfig cfg = lu_cfg(48, 16, DesignMode::Hybrid);
  cfg.b_f = 8;
  rcs::sim::TraceRecorder trace(true);
  core::lu_functional(xd1_p(3), cfg, a, false, &trace);
  const auto busy = trace.busy_by_resource();
  EXPECT_GT(busy.count("node0.cpu"), 0u);
  EXPECT_GT(busy.count("node1.cpu"), 0u);
  EXPECT_GT(busy.count("node2.fpga"), 0u);
  for (const auto& [res, t] : busy) EXPECT_GT(t, 0.0) << res;
}

TEST(LuFunctionalDetail, RejectsBadShapes) {
  const la::Matrix a = la::diagonally_dominant(30, 29);
  EXPECT_THROW(
      core::lu_functional(xd1_p(3), lu_cfg(30, 8, DesignMode::Hybrid), a),
      rcs::Error);
  EXPECT_THROW(
      core::lu_functional(xd1_p(1), lu_cfg(32, 8, DesignMode::Hybrid),
                          la::diagonally_dominant(32, 1)),
      rcs::Error);
}

// ---------------------------------------------------------------------------
// Floyd–Warshall functional correctness

class FwFunctional
    : public ::testing::TestWithParam<std::tuple<int, int, int, DesignMode>> {
};

TEST_P(FwFunctional, BitIdenticalToSequentialBlockedFw) {
  const auto [n, b, p, mode] = GetParam();
  const la::Matrix d0 = gr::random_digraph(n, 200 + n + b + p, 0.5);
  la::Matrix ref = d0;
  gr::blocked_floyd_warshall(ref, b);

  const auto res = core::fw_functional(xd1_p(p), fw_cfg(n, b, mode), d0);
  EXPECT_TRUE(la::bit_equal(res.distances.view(), ref.view()))
      << "n=" << n << " b=" << b << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FwFunctional,
    ::testing::Values(
        std::tuple{32, 8, 2, DesignMode::Hybrid},
        std::tuple{48, 8, 3, DesignMode::Hybrid},
        std::tuple{64, 8, 4, DesignMode::Hybrid},
        std::tuple{96, 8, 6, DesignMode::Hybrid},
        std::tuple{48, 8, 3, DesignMode::ProcessorOnly},
        std::tuple{48, 8, 3, DesignMode::FpgaOnly},
        std::tuple{80, 16, 5, DesignMode::Hybrid},
        std::tuple{32, 16, 2, DesignMode::Hybrid}),
    [](const auto& pinfo) {
      return "n" + std::to_string(std::get<0>(pinfo.param)) + "b" +
             std::to_string(std::get<1>(pinfo.param)) + "p" +
             std::to_string(std::get<2>(pinfo.param)) +
             std::string(core::to_string(std::get<3>(pinfo.param)))
                 .substr(0, 4);
    });

TEST(FwFunctionalDetail, MatchesTextbookFloydWarshall) {
  // vs the *unblocked* textbook algorithm equality holds to rounding only
  // (cross-block path sums associate differently); the bitwise check against
  // the sequential blocked implementation is in the parameterized suite.
  const la::Matrix d0 = gr::random_digraph(48, 55, 0.4);
  la::Matrix ref = d0;
  gr::floyd_warshall(ref);
  const auto res =
      core::fw_functional(xd1_p(3), fw_cfg(48, 8, DesignMode::Hybrid), d0);
  EXPECT_LT(la::max_abs_diff(res.distances.view(), ref.view()), 1e-9);
}

TEST(FwFunctionalDetail, AllModesProduceIdenticalNumbers) {
  const la::Matrix d0 = gr::random_digraph(48, 57, 0.6);
  const auto h =
      core::fw_functional(xd1_p(3), fw_cfg(48, 8, DesignMode::Hybrid), d0);
  const auto c = core::fw_functional(
      xd1_p(3), fw_cfg(48, 8, DesignMode::ProcessorOnly), d0);
  const auto f =
      core::fw_functional(xd1_p(3), fw_cfg(48, 8, DesignMode::FpgaOnly), d0);
  EXPECT_TRUE(la::bit_equal(h.distances.view(), c.distances.view()));
  EXPECT_TRUE(la::bit_equal(h.distances.view(), f.distances.view()));
}

TEST(FwFunctionalDetail, LookaheadMatchesBlockingBitExact) {
  for (const auto& [n, b, p] : {std::tuple{64LL, 16LL, 2}, {96LL, 16LL, 3},
                                {64LL, 8LL, 4}}) {
    const la::Matrix d0 =
        gr::random_digraph(static_cast<std::size_t>(n), 5, 0.35);
    core::FwConfig cfg = fw_cfg(n, b, DesignMode::Hybrid);
    const auto blocking = core::fw_functional(xd1_p(p), cfg, d0);
    cfg.lookahead = true;
    rcs::sim::TraceRecorder rec(true);
    const auto ahead = core::fw_functional(xd1_p(p), cfg, d0, false, &rec);
    EXPECT_TRUE(
        la::bit_equal(blocking.distances.view(), ahead.distances.view()))
        << "n=" << n << " p=" << p;
    EXPECT_LE(ahead.run.seconds, blocking.run.seconds + 1e-12)
        << "n=" << n << " p=" << p;
    // The owner's NIC fan-out runs ahead of the receivers, so the op3
    // pivot blocks have arrived by the time they are received.
    EXPECT_GT(overlap_efficiency(rec, p, ahead.run.seconds, "op3"), 0.0);
    EXPECT_NE(ahead.run.design.find("+lookahead"), std::string::npos);
  }
}

TEST(FwFunctionalDetail, SoftFpMatchesNative) {
  const la::Matrix d0 = gr::random_digraph(32, 59, 0.5);
  const auto native = core::fw_functional(
      xd1_p(2), fw_cfg(32, 8, DesignMode::Hybrid), d0, false);
  const auto soft = core::fw_functional(
      xd1_p(2), fw_cfg(32, 8, DesignMode::Hybrid), d0, true);
  EXPECT_TRUE(la::bit_equal(native.distances.view(), soft.distances.view()));
}

TEST(FwFunctionalDetail, DisconnectedGraphKeepsInfinities) {
  la::Matrix d0(32, 32, gr::kNoEdge);
  for (int i = 0; i < 32; ++i) d0(i, i) = 0.0;
  // Two 16-vertex cliques with no inter-clique edges.
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 16; ++j)
      if (i != j) {
        d0(i, j) = 1.0;
        d0(16 + i, 16 + j) = 1.0;
      }
  const auto res =
      core::fw_functional(xd1_p(2), fw_cfg(32, 8, DesignMode::Hybrid), d0);
  EXPECT_EQ(res.distances(0, 20), gr::kNoEdge);
  EXPECT_EQ(res.distances(20, 0), gr::kNoEdge);
  EXPECT_EQ(res.distances(0, 5), 1.0);
}

TEST(FwFunctionalDetail, ReportIsSelfConsistent) {
  const la::Matrix d0 = gr::random_digraph(64, 61, 0.5);
  const auto res =
      core::fw_functional(xd1_p(4), fw_cfg(64, 8, DesignMode::Hybrid), d0);
  EXPECT_GT(res.run.seconds, 0.0);
  EXPECT_GT(res.run.total_flops, 0.0);
  EXPECT_GT(res.run.bytes_on_network, 0u);
  EXPECT_GT(res.run.fpga_flops, 0.0);
  EXPECT_GT(res.run.coordination_events, 0u);
}

TEST(FwFunctionalDetail, TotalFlopsAre2NCubed) {
  const la::Matrix d0 = gr::random_digraph(64, 63, 0.5);
  const auto res =
      core::fw_functional(xd1_p(4), fw_cfg(64, 8, DesignMode::Hybrid), d0);
  const double n = 64.0;
  EXPECT_NEAR(res.run.total_flops, 2.0 * n * n * n, 1e-6);
}

TEST(FwFunctionalDetail, ExplicitSplitOverridesSolver) {
  const la::Matrix d0 = gr::random_digraph(64, 65, 0.5);
  core::FwConfig cfg = fw_cfg(64, 8, DesignMode::Hybrid);
  cfg.l1 = 1;
  const auto res = core::fw_functional(xd1_p(4), cfg, d0);
  EXPECT_EQ(res.partition.l1, 1);
  EXPECT_EQ(res.partition.l2, 1);  // L = 64/(8*4) = 2
  la::Matrix ref = d0;
  gr::blocked_floyd_warshall(ref, 8);
  EXPECT_TRUE(la::bit_equal(res.distances.view(), ref.view()));
}

TEST(FwFunctionalDetail, RejectsBadLayout) {
  const la::Matrix d0 = gr::random_digraph(60, 67, 0.5);
  EXPECT_THROW(
      core::fw_functional(xd1_p(4), fw_cfg(60, 8, DesignMode::Hybrid), d0),
      rcs::Error);
}

}  // namespace
