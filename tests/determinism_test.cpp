// Regression: the intra-node parallel runtime must not perturb the simulated
// experiment. lu_functional and fw_functional are re-run at several
// RCS_THREADS-equivalent pool sizes; simulated seconds, network bytes, and
// the factored/closure outputs must be exactly equal — the pool accelerates
// wall-clock only, never the virtual clocks. The PinnedRuns cases hold every
// app's simulated schedule to fixed recorded values.

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "core/cholesky.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/mm.hpp"
#include "core/system.hpp"
#include "fpga/matmul_array.hpp"
#include "graph/generate.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/generate.hpp"
#include "linalg/simd.hpp"
#include "net/minimpi.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

namespace core = rcs::core;
namespace common = rcs::common;
namespace la = rcs::linalg;
namespace gr = rcs::graph;
namespace sim = rcs::sim;

namespace {

core::SystemParams xd1_p(int p) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  return sys;
}

// The kernel-level contract behind every test in this file: gemm, the
// MatMulArray emulation (all four variants), and trsm_left_lower_unit
// produce byte-identical output across every (SIMD path x thread count)
// combination, with threads=1 + scalar dispatch as the reference.
TEST(Determinism, KernelsInvariantAcrossSimdAndThreads) {
  const std::size_t m = 129, k = 257, n = 70;  // ragged, crosses KC/MC/NC
  const la::Matrix a = la::random_matrix(m, k, 11);
  const la::Matrix b = la::random_matrix(k, n, 12);
  const la::Matrix bt = la::random_matrix(n, k, 13);
  const la::Matrix e0 = la::random_matrix(m, n, 14);
  la::Matrix lower = la::random_matrix(m, m, 15);
  for (std::size_t i = 0; i < m; ++i) lower(i, i) = 1.0;
  const la::Matrix rhs = la::random_matrix(m, n, 16);
  const rcs::fpga::MatMulArray array(
      core::SystemParams::cray_xd1().mm_fpga);
  namespace simd = rcs::linalg::simd;
  const simd::Level saved = simd::active_level();

  common::ThreadPool::set_global_threads(1);
  simd::set_level(simd::Level::Scalar);
  la::Matrix gemm_ref = e0;
  la::gemm(a.view(), b.view(), gemm_ref.view());
  la::Matrix mm_ref = e0;
  array.multiply_accumulate(a.view(), b.view(), mm_ref.view());
  la::Matrix mm_nt_ref = e0;
  array.multiply_accumulate_nt(a.view(), bt.view(), mm_nt_ref.view());
  la::Matrix trsm_ref = rhs;
  la::trsm_left_lower_unit(lower.view(), trsm_ref.view());

  for (int lv = 0; lv <= static_cast<int>(simd::max_supported_level());
       ++lv) {
    const simd::Level level = static_cast<simd::Level>(lv);
    simd::set_level(level);
    for (int threads : {1, 2, 7}) {
      common::ThreadPool::set_global_threads(threads);
      const std::string tag = std::string("simd=") + simd::level_name(level) +
                              " threads=" + std::to_string(threads);
      la::Matrix c = e0;
      la::gemm(a.view(), b.view(), c.view());
      EXPECT_TRUE(la::bit_equal(c.view(), gemm_ref.view())) << "gemm " << tag;
      la::Matrix e = e0;
      array.multiply_accumulate(a.view(), b.view(), e.view());
      EXPECT_TRUE(la::bit_equal(e.view(), mm_ref.view())) << "mm " << tag;
      la::Matrix ent = e0;
      array.multiply_accumulate_nt(a.view(), bt.view(), ent.view());
      EXPECT_TRUE(la::bit_equal(ent.view(), mm_nt_ref.view()))
          << "mm_nt " << tag;
      la::Matrix x = rhs;
      la::trsm_left_lower_unit(lower.view(), x.view());
      EXPECT_TRUE(la::bit_equal(x.view(), trsm_ref.view())) << "trsm " << tag;
    }
  }

  // Soft-float variants skip the SIMD engine entirely; check across thread
  // counts at one small shape (the bit-accurate cores are slow).
  simd::set_level(saved);
  common::ThreadPool::set_global_threads(1);
  la::Matrix soft_ref = la::Matrix(17, 9);
  array.multiply_accumulate_soft(a.block(0, 0, 17, 23), b.block(0, 0, 23, 9),
                                 soft_ref.view());
  la::Matrix soft_nt_ref = la::Matrix(17, 9);
  array.multiply_accumulate_nt_soft(a.block(0, 0, 17, 23),
                                    bt.block(0, 0, 9, 23),
                                    soft_nt_ref.view());
  for (int threads : {2, 7}) {
    common::ThreadPool::set_global_threads(threads);
    la::Matrix s(17, 9);
    array.multiply_accumulate_soft(a.block(0, 0, 17, 23),
                                   b.block(0, 0, 23, 9), s.view());
    EXPECT_TRUE(la::bit_equal(s.view(), soft_ref.view()))
        << "soft threads=" << threads;
    la::Matrix snt(17, 9);
    array.multiply_accumulate_nt_soft(a.block(0, 0, 17, 23),
                                      bt.block(0, 0, 9, 23), snt.view());
    EXPECT_TRUE(la::bit_equal(snt.view(), soft_nt_ref.view()))
        << "soft_nt threads=" << threads;
  }
  common::ThreadPool::set_global_threads(1);
}

TEST(Determinism, LuFunctionalInvariantAcrossThreadCounts) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;

  common::ThreadPool::set_global_threads(1);
  const auto ref = core::lu_functional(xd1_p(3), cfg, a);

  for (int threads : {2, 7}) {
    common::ThreadPool::set_global_threads(threads);
    const auto res = core::lu_functional(xd1_p(3), cfg, a);
    EXPECT_EQ(res.run.seconds, ref.run.seconds) << "threads=" << threads;
    EXPECT_EQ(res.run.bytes_on_network, ref.run.bytes_on_network)
        << "threads=" << threads;
    EXPECT_EQ(res.run.cpu_busy_seconds, ref.run.cpu_busy_seconds)
        << "threads=" << threads;
    EXPECT_EQ(res.run.fpga_busy_seconds, ref.run.fpga_busy_seconds)
        << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(res.factored.view(), ref.factored.view()))
        << "threads=" << threads;
  }
  common::ThreadPool::set_global_threads(1);
}

TEST(Determinism, FwFunctionalInvariantAcrossThreadCounts) {
  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);
  core::FwConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;

  common::ThreadPool::set_global_threads(1);
  const auto ref = core::fw_functional(xd1_p(2), cfg, d0);

  for (int threads : {2, 7}) {
    common::ThreadPool::set_global_threads(threads);
    const auto res = core::fw_functional(xd1_p(2), cfg, d0);
    EXPECT_EQ(res.run.seconds, ref.run.seconds) << "threads=" << threads;
    EXPECT_EQ(res.run.bytes_on_network, ref.run.bytes_on_network)
        << "threads=" << threads;
    EXPECT_EQ(res.run.cpu_busy_seconds, ref.run.cpu_busy_seconds)
        << "threads=" << threads;
    EXPECT_EQ(res.run.fpga_busy_seconds, ref.run.fpga_busy_seconds)
        << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(res.distances.view(), ref.distances.view()))
        << "threads=" << threads;
  }
  common::ThreadPool::set_global_threads(1);
}

// The lookahead pipeline replaces barriers with tag-ordered message matching;
// its simulated timings and overlap accounting must stay exactly reproducible
// run-to-run and across pool sizes (§4.3 determinism invariant).
TEST(Determinism, LookaheadScheduleIsReproducible) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  core::LuConfig lu;
  lu.n = 64;
  lu.b = 16;
  lu.mode = core::DesignMode::Hybrid;
  lu.lookahead = true;

  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);
  core::FwConfig fw;
  fw.n = 64;
  fw.b = 16;
  fw.mode = core::DesignMode::Hybrid;
  fw.lookahead = true;

  common::ThreadPool::set_global_threads(1);
  const auto lu_ref = core::lu_functional(xd1_p(3), lu, a);
  const auto fw_ref = core::fw_functional(xd1_p(2), fw, d0);

  for (int threads : {1, 7}) {
    common::ThreadPool::set_global_threads(threads);
    const auto lu_res = core::lu_functional(xd1_p(3), lu, a);
    EXPECT_EQ(lu_res.run.seconds, lu_ref.run.seconds) << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(lu_res.factored.view(), lu_ref.factored.view()))
        << "threads=" << threads;
    ASSERT_EQ(lu_res.overlap.size(), lu_ref.overlap.size());
    for (const auto& [ph, os] : lu_ref.overlap) {
      EXPECT_EQ(lu_res.overlap.at(ph).hidden_s, os.hidden_s) << ph;
      EXPECT_EQ(lu_res.overlap.at(ph).total_s, os.total_s) << ph;
    }

    const auto fw_res = core::fw_functional(xd1_p(2), fw, d0);
    EXPECT_EQ(fw_res.run.seconds, fw_ref.run.seconds) << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(fw_res.distances.view(), fw_ref.distances.view()))
        << "threads=" << threads;
    for (const auto& [ph, os] : fw_ref.overlap) {
      EXPECT_EQ(fw_res.overlap.at(ph).hidden_s, os.hidden_s) << ph;
      EXPECT_EQ(fw_res.overlap.at(ph).total_s, os.total_s) << ph;
    }
  }
  common::ThreadPool::set_global_threads(1);
}

// Faulted runs must replay byte-identically: the same FaultPlan seed gives
// the same injections, the same recoveries, the same simulated trace, and
// bit-identical outputs — across repeated runs and across pool sizes.
TEST(Determinism, FaultPlanReplayIsByteIdentical) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);

  // A plan exercising every event class the functional planes inject
  // (slowdowns, degraded links, bit-flips) — no crashes, so the runs
  // complete and their outputs can be compared.
  sim::FaultSpec spec;
  spec.ranks = 3;
  spec.seed = 99;
  spec.horizon_s = 0.5;
  spec.slowdown_windows = 2;
  spec.link_faults = 2;
  spec.link_extra_latency_max_s = 1e-3;
  spec.link_jitter_max_s = 1e-4;
  spec.bitflips = 3;
  spec.bitflip_max_call = 8;
  const sim::FaultPlan plan = sim::FaultPlan::generate(spec);
  // Regenerating from the same spec gives the same plan (seeded sampling).
  const sim::FaultPlan replay = sim::FaultPlan::generate(spec);
  ASSERT_EQ(replay.bitflip_count(), plan.bitflip_count());
  for (std::size_t i = 0; i < plan.bitflips().size(); ++i) {
    EXPECT_EQ(replay.bitflips()[i].rank, plan.bitflips()[i].rank);
    EXPECT_EQ(replay.bitflips()[i].call, plan.bitflips()[i].call);
    EXPECT_EQ(replay.bitflips()[i].bit, plan.bitflips()[i].bit);
  }

  core::LuConfig lu;
  lu.n = 64;
  lu.b = 16;
  lu.mode = core::DesignMode::Hybrid;
  lu.faults = &plan;
  lu.fault_tolerance = true;
  lu.straggler_timeout_s = 10.0;

  core::FwConfig fw;
  fw.n = 64;
  fw.b = 16;
  fw.mode = core::DesignMode::Hybrid;
  fw.faults = &plan;
  fw.fault_tolerance = true;

  const auto trace_csv = [](sim::TraceRecorder& rec) {
    std::ostringstream os;
    rec.write_csv(os);
    return os.str();
  };

  common::ThreadPool::set_global_threads(1);
  sim::TraceRecorder lu_rec(true);
  const auto lu_ref = core::lu_functional(xd1_p(3), lu, a, false, &lu_rec);
  const std::string lu_trace = trace_csv(lu_rec);
  sim::TraceRecorder fw_rec(true);
  const auto fw_ref = core::fw_functional(xd1_p(2), fw, d0, false, &fw_rec);
  const std::string fw_trace = trace_csv(fw_rec);

  for (int threads : {1, 2, 7}) {
    common::ThreadPool::set_global_threads(threads);

    sim::TraceRecorder rec(true);
    const auto res = core::lu_functional(xd1_p(3), lu, a, false, &rec);
    EXPECT_EQ(res.run.seconds, lu_ref.run.seconds) << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(res.factored.view(), lu_ref.factored.view()))
        << "threads=" << threads;
    EXPECT_EQ(trace_csv(rec), lu_trace) << "threads=" << threads;
    // Fault accounting is part of the replay contract.
    EXPECT_EQ(res.faults.bitflips_injected, lu_ref.faults.bitflips_injected);
    EXPECT_EQ(res.faults.slowdown_hits, lu_ref.faults.slowdown_hits);
    EXPECT_EQ(res.faults.slowdown_added_s, lu_ref.faults.slowdown_added_s);
    EXPECT_EQ(res.faults.link_hits, lu_ref.faults.link_hits);
    EXPECT_EQ(res.faults.link_added_s, lu_ref.faults.link_added_s);
    EXPECT_EQ(res.faults.detected, lu_ref.faults.detected);
    EXPECT_EQ(res.faults.corrected_elements, lu_ref.faults.corrected_elements);
    EXPECT_EQ(res.faults.reissued_blocks, lu_ref.faults.reissued_blocks);
    EXPECT_EQ(res.faults.straggler_reissues, lu_ref.faults.straggler_reissues);
    EXPECT_EQ(res.faults.recovery_cpu_s, lu_ref.faults.recovery_cpu_s);
    EXPECT_EQ(res.faults.mttr_s, lu_ref.faults.mttr_s);

    sim::TraceRecorder frec(true);
    const auto fres = core::fw_functional(xd1_p(2), fw, d0, false, &frec);
    EXPECT_EQ(fres.run.seconds, fw_ref.run.seconds) << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(fres.distances.view(), fw_ref.distances.view()))
        << "threads=" << threads;
    EXPECT_EQ(trace_csv(frec), fw_trace) << "threads=" << threads;
    EXPECT_EQ(fres.faults.bitflips_injected, fw_ref.faults.bitflips_injected);
    EXPECT_EQ(fres.faults.detected, fw_ref.faults.detected);
    EXPECT_EQ(fres.faults.reissued_blocks, fw_ref.faults.reissued_blocks);
    EXPECT_EQ(fres.faults.recovery_cpu_s, fw_ref.faults.recovery_cpu_s);
    EXPECT_EQ(fres.faults.mttr_s, fw_ref.faults.mttr_s);
  }
  common::ThreadPool::set_global_threads(1);
}

// The rank scheduler must be invisible to the simulation: multiplexing the
// ranks as fibers over 1, 2, or 7 worker loops produces the same simulated
// clocks, bit-identical outputs, and a byte-identical trace CSV as the
// thread-per-rank baseline. This is the p<=8 byte-identity contract that
// lets large-p worlds default to fibers without a semantic escape hatch.
TEST(Determinism, RankSchedulerInvariantAcrossMaxWorkers) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);

  core::LuConfig lu;
  lu.n = 64;
  lu.b = 16;
  lu.mode = core::DesignMode::Hybrid;

  core::FwConfig fw;
  fw.n = 64;
  fw.b = 16;
  fw.mode = core::DesignMode::Hybrid;

  const auto trace_csv = [](sim::TraceRecorder& rec) {
    std::ostringstream os;
    rec.write_csv(os);
    return os.str();
  };

  // Baseline: the pre-scheduler execution model, one OS thread per rank.
  common::ThreadPool::set_global_threads(2);
  lu.max_workers = rcs::net::World::kThreadPerRank;
  fw.max_workers = rcs::net::World::kThreadPerRank;
  sim::TraceRecorder lu_rec(true);
  const auto lu_ref = core::lu_functional(xd1_p(3), lu, a, false, &lu_rec);
  const std::string lu_trace = trace_csv(lu_rec);
  sim::TraceRecorder fw_rec(true);
  const auto fw_ref = core::fw_functional(xd1_p(2), fw, d0, false, &fw_rec);
  const std::string fw_trace = trace_csv(fw_rec);

  for (int workers : {1, 2, 7}) {
    lu.max_workers = workers;
    fw.max_workers = workers;

    sim::TraceRecorder rec(true);
    const auto res = core::lu_functional(xd1_p(3), lu, a, false, &rec);
    EXPECT_EQ(res.run.seconds, lu_ref.run.seconds) << "workers=" << workers;
    EXPECT_EQ(res.run.bytes_on_network, lu_ref.run.bytes_on_network)
        << "workers=" << workers;
    EXPECT_TRUE(la::bit_equal(res.factored.view(), lu_ref.factored.view()))
        << "workers=" << workers;
    EXPECT_EQ(trace_csv(rec), lu_trace) << "workers=" << workers;

    sim::TraceRecorder frec(true);
    const auto fres = core::fw_functional(xd1_p(2), fw, d0, false, &frec);
    EXPECT_EQ(fres.run.seconds, fw_ref.run.seconds) << "workers=" << workers;
    EXPECT_EQ(fres.run.bytes_on_network, fw_ref.run.bytes_on_network)
        << "workers=" << workers;
    EXPECT_TRUE(la::bit_equal(fres.distances.view(), fw_ref.distances.view()))
        << "workers=" << workers;
    EXPECT_EQ(trace_csv(frec), fw_trace) << "workers=" << workers;
  }
  common::ThreadPool::set_global_threads(1);
}

// --- Pinned runs -------------------------------------------------------------
// Every functional plane's simulated schedule is pinned to fixed values: the
// FNV-1a digest of its trace CSV, its makespan, its network bytes and its
// coordination events, plus each app's analytic makespan at its paper point.
// A refactor of the shared run harness or opMM routine must leave all of
// them exactly where they are.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Pin {
  std::uint64_t csv_digest;
  double seconds;
  std::uint64_t bytes_on_network;
  std::uint64_t coordination_events;
};

void expect_pinned(const std::string& what, const sim::TraceRecorder& rec,
                   const core::RunReport& run, const Pin& pin) {
  std::ostringstream csv;
  rec.write_csv(csv);
  EXPECT_EQ(fnv1a(csv.str()), pin.csv_digest) << what;
  EXPECT_DOUBLE_EQ(run.seconds, pin.seconds) << what;
  EXPECT_EQ(run.bytes_on_network, pin.bytes_on_network) << what;
  EXPECT_EQ(run.coordination_events, pin.coordination_events) << what;
}

TEST(PinnedRuns, LuFunctional) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  const Pin pins[] = {
      {12497497609675364495ull, 7.8517817378917338e-05, 131200u, 0u},
      {13316973553328090415ull, 7.0114739601139623e-05, 131184u, 0u}};
  for (const bool lookahead : {false, true}) {
    cfg.lookahead = lookahead;
    sim::TraceRecorder rec(true);
    const auto res = core::lu_functional(xd1_p(3), cfg, a, false, &rec);
    expect_pinned(lookahead ? "lookahead" : "blocking", rec, res.run,
                  pins[lookahead ? 1 : 0]);
  }
  // Eq. 4 solves b = 16 to b_f = 0; pin a run with an FPGA share too.
  cfg.lookahead = false;
  cfg.b_f = 8;
  sim::TraceRecorder rec(true);
  const auto res = core::lu_functional(xd1_p(3), cfg, a, false, &rec);
  expect_pinned("b_f=8", rec, res.run,
                {12573201998406669646ull, 8.3539355840455762e-05, 131200u,
                 84u});
}

TEST(PinnedRuns, FwFunctional) {
  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);
  core::FwConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  const Pin pins[] = {
      {3591938345523819518ull, 0.00053031149122807005, 33032u, 92u},
      {16502589374968856619ull, 0.0004987938245614034, 33024u, 92u}};
  for (const bool lookahead : {false, true}) {
    cfg.lookahead = lookahead;
    sim::TraceRecorder rec(true);
    const auto res = core::fw_functional(xd1_p(2), cfg, d0, false, &rec);
    expect_pinned(lookahead ? "lookahead" : "blocking", rec, res.run,
                  pins[lookahead ? 1 : 0]);
  }
}

TEST(PinnedRuns, CholFunctional) {
  const la::Matrix a = la::spd_matrix(64, 45);
  core::CholConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.b_f = 8;
  sim::TraceRecorder rec(true);
  const auto res = core::cholesky_functional(xd1_p(4), cfg, a, false, &rec);
  expect_pinned("chol", rec, res.run,
                {15121164426357715959ull, 7.7413004843304779e-05, 137880u,
                 90u});
}

TEST(PinnedRuns, MmFunctional) {
  core::MmConfig cfg;
  cfg.mode = core::DesignMode::Hybrid;

  // Single node: the [22] hybrid multiply.
  cfg.n = 64;
  cfg.b = 64;
  cfg.b_f = 32;
  const la::Matrix a1 = la::random_matrix(64, 64, 705);
  const la::Matrix b1 = la::random_matrix(64, 64, 707);
  sim::TraceRecorder rec1(true);
  const auto one = core::mm_functional(xd1_p(1), cfg, a1, b1, false, &rec1);
  expect_pinned("p=1", rec1, one.run,
                {12450039251313160539ull, 0.00013193846153846154, 0u, 9u});

  // Root-fed distributed multiply over two workers.
  cfg.n = 96;
  cfg.b = 48;
  cfg.b_f = 24;
  const la::Matrix a3 = la::random_matrix(96, 96, 801);
  const la::Matrix b3 = la::random_matrix(96, 96, 803);
  sim::TraceRecorder rec3(true);
  const auto three = core::mm_functional(xd1_p(3), cfg, a3, b3, false, &rec3);
  expect_pinned("p=3", rec3, three.run,
                {8164378654010838004ull, 0.00045411692307692296, 664192u,
                 104u});
}

TEST(PinnedRuns, AnalyticPaperPoints) {
  const core::SystemParams xd1 = core::SystemParams::cray_xd1();
  core::LuConfig lu;
  lu.n = 30000;
  lu.b = 3000;
  EXPECT_DOUBLE_EQ(core::lu_analytic(xd1, lu).run.seconds,
                   938.29992307692794);
  core::FwConfig fw;
  fw.n = 92160;
  fw.b = 256;
  EXPECT_DOUBLE_EQ(core::fw_analytic(xd1, fw).run.seconds,
                   236187.88082563825);
  core::CholConfig chol;
  chol.n = 30000;
  chol.b = 3000;
  EXPECT_DOUBLE_EQ(core::cholesky_analytic(xd1, chol).run.seconds,
                   491.21607692307754);
  core::MmConfig mm;
  mm.n = 30000;
  mm.b = 3000;
  EXPECT_DOUBLE_EQ(core::mm_analytic(xd1, mm).run.seconds,
                   1838.4695999999994);
}

}  // namespace
