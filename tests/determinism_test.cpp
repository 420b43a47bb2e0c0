// Regression: the intra-node parallel runtime must not perturb the simulated
// experiment. lu_functional and fw_functional are re-run at several
// RCS_THREADS-equivalent pool sizes, which also set how many worker loops
// carry the rank fibers; simulated seconds, network bytes, trace CSVs and
// the factored/closure outputs must be exactly equal — the pool and the
// rank scheduler accelerate wall-clock only, never the virtual clocks. The
// PinnedRuns cases hold every app's simulated schedule to fixed recorded
// values.

#include <array>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "core/analysis.hpp"
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
#include "obs/critpath.hpp"
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

std::string trace_csv(const sim::TraceRecorder& rec) {
  std::ostringstream os;
  rec.write_csv(os);
  return os.str();
}

/// (hidden, wire) transfer seconds of every phase that received data, from
/// the critical-path analysis of a traced run.
std::map<std::string, std::pair<double, double>> overlap_by_phase(
    const sim::TraceRecorder& rec, int p, double makespan) {
  std::map<std::string, std::pair<double, double>> out;
  for (const auto& pa : core::analyze_run(rec, p, makespan).per_phase) {
    if (pa.transfer_wire_s > 0.0) {
      out[pa.label] = {pa.transfer_hidden_s, pa.transfer_wire_s};
    }
  }
  return out;
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

// Pool sizes 1, 2 and 7 carry the p = 3 ranks on 1, 2 and 3 worker loops.
TEST(Determinism, LuFunctionalInvariantAcrossThreadCounts) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;

  common::ThreadPool::set_global_threads(1);
  sim::TraceRecorder ref_rec(true);
  const auto ref = core::lu_functional(xd1_p(3), cfg, a, false, &ref_rec);
  const std::string ref_trace = trace_csv(ref_rec);

  for (int threads : {2, 7}) {
    common::ThreadPool::set_global_threads(threads);
    sim::TraceRecorder rec(true);
    const auto res = core::lu_functional(xd1_p(3), cfg, a, false, &rec);
    EXPECT_EQ(res.run.seconds, ref.run.seconds) << "threads=" << threads;
    EXPECT_EQ(res.run.bytes_on_network, ref.run.bytes_on_network)
        << "threads=" << threads;
    EXPECT_EQ(res.run.cpu_busy_seconds, ref.run.cpu_busy_seconds)
        << "threads=" << threads;
    EXPECT_EQ(res.run.fpga_busy_seconds, ref.run.fpga_busy_seconds)
        << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(res.factored.view(), ref.factored.view()))
        << "threads=" << threads;
    EXPECT_EQ(trace_csv(rec), ref_trace) << "threads=" << threads;
  }
  common::ThreadPool::set_global_threads(1);
}

// Pool sizes 1, 2 and 7 carry the p = 2 ranks on 1, 2 and 2 worker loops.
TEST(Determinism, FwFunctionalInvariantAcrossThreadCounts) {
  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);
  core::FwConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;

  common::ThreadPool::set_global_threads(1);
  sim::TraceRecorder ref_rec(true);
  const auto ref = core::fw_functional(xd1_p(2), cfg, d0, false, &ref_rec);
  const std::string ref_trace = trace_csv(ref_rec);

  for (int threads : {2, 7}) {
    common::ThreadPool::set_global_threads(threads);
    sim::TraceRecorder rec(true);
    const auto res = core::fw_functional(xd1_p(2), cfg, d0, false, &rec);
    EXPECT_EQ(res.run.seconds, ref.run.seconds) << "threads=" << threads;
    EXPECT_EQ(res.run.bytes_on_network, ref.run.bytes_on_network)
        << "threads=" << threads;
    EXPECT_EQ(res.run.cpu_busy_seconds, ref.run.cpu_busy_seconds)
        << "threads=" << threads;
    EXPECT_EQ(res.run.fpga_busy_seconds, ref.run.fpga_busy_seconds)
        << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(res.distances.view(), ref.distances.view()))
        << "threads=" << threads;
    EXPECT_EQ(trace_csv(rec), ref_trace) << "threads=" << threads;
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
  sim::TraceRecorder lu_ref_rec(true);
  const auto lu_ref = core::lu_functional(xd1_p(3), lu, a, false, &lu_ref_rec);
  const auto lu_overlap = overlap_by_phase(lu_ref_rec, 3, lu_ref.run.seconds);
  sim::TraceRecorder fw_ref_rec(true);
  const auto fw_ref =
      core::fw_functional(xd1_p(2), fw, d0, false, &fw_ref_rec);
  const auto fw_overlap = overlap_by_phase(fw_ref_rec, 2, fw_ref.run.seconds);
  EXPECT_EQ(lu_overlap.count("opMM"), 1u);
  EXPECT_EQ(fw_overlap.count("op3"), 1u);

  for (int threads : {1, 7}) {
    common::ThreadPool::set_global_threads(threads);
    sim::TraceRecorder lu_rec(true);
    const auto lu_res = core::lu_functional(xd1_p(3), lu, a, false, &lu_rec);
    EXPECT_EQ(lu_res.run.seconds, lu_ref.run.seconds) << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(lu_res.factored.view(), lu_ref.factored.view()))
        << "threads=" << threads;
    EXPECT_EQ(overlap_by_phase(lu_rec, 3, lu_res.run.seconds), lu_overlap)
        << "threads=" << threads;

    sim::TraceRecorder fw_rec(true);
    const auto fw_res = core::fw_functional(xd1_p(2), fw, d0, false, &fw_rec);
    EXPECT_EQ(fw_res.run.seconds, fw_ref.run.seconds) << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(fw_res.distances.view(), fw_ref.distances.view()))
        << "threads=" << threads;
    EXPECT_EQ(overlap_by_phase(fw_rec, 2, fw_res.run.seconds), fw_overlap)
        << "threads=" << threads;
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

// --- Pinned runs -------------------------------------------------------------
// Every functional plane's simulated schedule is pinned to fixed values: the
// FNV-1a digests of its trace CSV, its critical-path analysis JSON and its
// Chrome trace export, its makespan, its network bytes and its coordination
// events, plus each app's cost-only makespan at its paper point. A refactor
// of the shared run harness, the opMM routine, the trace recorder or the
// analyzer must leave all of them exactly where they are. Every pinned run
// without bit-flips also runs cost-only (no input matrix), which must hit
// the same pin: it executes the same schedule without the data.

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
  std::uint64_t analysis_digest;
  std::uint64_t chrome_digest;
  double seconds;
  std::uint64_t bytes_on_network;
  std::uint64_t coordination_events;
};

std::uint64_t csv_digest(const sim::TraceRecorder& rec) {
  return fnv1a(trace_csv(rec));
}

std::uint64_t analysis_digest(const rcs::obs::cp::Analysis& an) {
  std::ostringstream os;
  an.write_json(os);
  return fnv1a(os.str());
}

const la::Matrix kNoInput;

/// A pinned run's two inputs: the data, and none (cost-only).
std::array<const la::Matrix*, 2> with_and_without(const la::Matrix& a) {
  return {&a, &kNoInput};
}

/// `what`, marked when the run is cost-only.
std::string run_name(const std::string& what, const la::Matrix& in) {
  return in.empty() ? what + " (cost-only)" : what;
}

/// The pin a traced run sets, for a twin run that must hit it.
Pin pin_of(const sim::TraceRecorder& rec, const core::RunReport& run, int p) {
  std::ostringstream chrome;
  rec.write_chrome_json(chrome);
  return {csv_digest(rec),
          analysis_digest(core::analyze_run(rec, p, run.seconds)),
          fnv1a(chrome.str()),
          run.seconds,
          run.bytes_on_network,
          run.coordination_events};
}

void expect_pinned(const std::string& what, const sim::TraceRecorder& rec,
                   const core::RunReport& run, int p, const Pin& pin) {
  const Pin got = pin_of(rec, run, p);
  EXPECT_EQ(got.csv_digest, pin.csv_digest) << what;
  EXPECT_EQ(got.analysis_digest, pin.analysis_digest) << what;
  EXPECT_EQ(got.chrome_digest, pin.chrome_digest) << what;
  EXPECT_DOUBLE_EQ(got.seconds, pin.seconds) << what;
  EXPECT_EQ(got.bytes_on_network, pin.bytes_on_network) << what;
  EXPECT_EQ(got.coordination_events, pin.coordination_events) << what;
}

TEST(PinnedRuns, LuFunctional) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  const Pin pins[] = {
      {12497497609675364495ull, 4945018549148650624ull,
       17272035338400582040ull, 7.8517817378917338e-05, 131200u, 0u},
      {13316973553328090415ull, 17121883204248662047ull,
       16510668468056530144ull, 7.0114739601139623e-05, 131184u, 0u}};
  for (const la::Matrix* in : with_and_without(a)) {
    for (const bool lookahead : {false, true}) {
      cfg.lookahead = lookahead;
      sim::TraceRecorder rec(true);
      const auto res = core::lu_functional(xd1_p(3), cfg, *in, false, &rec);
      expect_pinned(run_name(lookahead ? "lookahead" : "blocking", *in), rec,
                    res.run, 3, pins[lookahead ? 1 : 0]);
    }
  }
  // Eq. 4 solves b = 16 to b_f = 0; pin a run with an FPGA share too.
  cfg.lookahead = false;
  cfg.b_f = 8;
  for (const la::Matrix* in : with_and_without(a)) {
    sim::TraceRecorder rec(true);
    const auto res = core::lu_functional(xd1_p(3), cfg, *in, false, &rec);
    expect_pinned(run_name("b_f=8", *in), rec, res.run, 3,
                  {12573201998406669646ull, 121677093908109408ull,
                   13615211582964395298ull, 8.3539355840455762e-05, 131200u,
                   84u});
  }
  // DMA fan-out with every stripe sent after the panel completes.
  cfg.l = 0;
  cfg.fanout = core::SendFanout::PaperSingle;
  for (const la::Matrix* in : with_and_without(a)) {
    sim::TraceRecorder rec(true);
    const auto res = core::lu_functional(xd1_p(3), cfg, *in, false, &rec);
    expect_pinned(run_name("l=0 PaperSingle", *in), rec, res.run, 3,
                  {3387901507303286816ull, 4489308643809885624ull,
                   451571926147216808ull, 8.3539355840455762e-05, 131200u,
                   84u});
  }
}

TEST(PinnedRuns, FwFunctional) {
  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);
  core::FwConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  const Pin pins[] = {
      {3591938345523819518ull, 9459927985753829138ull,
       15966399383404741032ull, 0.00053031149122807005, 33032u, 92u},
      {16502589374968856619ull, 6615586013176680816ull,
       2659846043914313685ull, 0.0004987938245614034, 33024u, 92u}};
  for (const la::Matrix* in : with_and_without(d0)) {
    for (const bool lookahead : {false, true}) {
      cfg.lookahead = lookahead;
      sim::TraceRecorder rec(true);
      const auto res = core::fw_functional(xd1_p(2), cfg, *in, false, &rec);
      expect_pinned(run_name(lookahead ? "lookahead" : "blocking", *in), rec,
                    res.run, 2, pins[lookahead ? 1 : 0]);
    }
  }
}

// FNV-1a of the fault/recovery stats, every double printed at round-trip
// precision.
std::uint64_t stats_digest(const sim::FaultStats& f) {
  std::ostringstream os;
  os.precision(17);
  os << f.bitflips_injected << ' ' << f.slowdown_hits << ' '
     << f.slowdown_added_s << ' ' << f.link_hits << ' ' << f.link_added_s
     << ' ' << f.crashes << ' ' << f.checks << ' ' << f.detected << ' '
     << f.corrected_elements << ' ' << f.reissued_blocks << ' '
     << f.straggler_timeouts << ' ' << f.straggler_reissues << ' '
     << f.recovery_cpu_s;
  for (const double m : f.mttr_s) os << ' ' << m;
  return fnv1a(os.str());
}

// Halved bandwidth plus up to 1 µs of per-message jitter on every link.
sim::LinkFault slow_jittery_link() {
  sim::LinkFault f;
  f.bw_factor = 0.5;
  f.jitter_max_s = 1e-6;
  return f;
}

sim::BitFlip one_flip(int rank, std::uint64_t call, int bit) {
  sim::BitFlip f;
  f.rank = rank;
  f.call = call;
  f.row_u = 0.5;
  f.col_u = 0.5;
  f.bit = bit;
  return f;
}

// Both schedules under ABFT, a bit-flip, a degraded link and a ×50 straggler
// whose E shares miss their deadline, so the owners' deadline receives time
// out and re-solve the shares.
TEST(PinnedRuns, LuFunctionalUnderFaults) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.b_f = 8;
  const double clean_s = core::lu_functional(xd1_p(3), cfg, a).run.seconds;

  sim::FaultPlan plan(41);
  plan.add_bitflip(one_flip(0, 0, 55));
  sim::SlowdownWindow w;
  w.rank = 1;
  w.end = 1e6;
  w.cpu_factor = 50.0;
  w.fpga_factor = 50.0;
  plan.add_slowdown(w);
  plan.add_link_fault(slow_jittery_link());
  cfg.faults = &plan;
  cfg.fault_tolerance = true;
  cfg.straggler_timeout_s = clean_s / 4.0;

  const Pin pins[] = {
      {12625567454461574895ull, 8570840805929113808ull,
       16624186997832775240ull, 0.0019482881824326671, 131200u, 84u},
      {17477177109983321183ull, 14516790005436971300ull,
       12587249386759540563ull, 0.0019215915292808267, 131184u, 84u}};
  const std::uint64_t stats[] = {11265292840704260300ull,
                                 709245410082034370ull};
  for (const bool lookahead : {false, true}) {
    cfg.lookahead = lookahead;
    const char* what = lookahead ? "lookahead" : "blocking";
    sim::TraceRecorder rec(true);
    const auto res = core::lu_functional(xd1_p(3), cfg, a, false, &rec);
    expect_pinned(what, rec, res.run, 3, pins[lookahead ? 1 : 0]);
    EXPECT_EQ(stats_digest(res.faults), stats[lookahead ? 1 : 0]) << what;
    EXPECT_EQ(res.faults.straggler_timeouts, 5u) << what;
    EXPECT_EQ(res.faults.bitflips_injected, 1u) << what;
  }

  // ABFT's outcome depends on the data, so a cost-only run refuses the
  // bit-flip.
  EXPECT_THROW(core::lu_functional(xd1_p(3), cfg, kNoInput), rcs::Error);

  // The same plan without it: checks, the straggler's timeouts and
  // re-solves and the degraded link run cost-only exactly as in full.
  sim::FaultPlan no_flip(41);
  no_flip.add_slowdown(w);
  no_flip.add_link_fault(slow_jittery_link());
  cfg.faults = &no_flip;
  for (const bool lookahead : {false, true}) {
    cfg.lookahead = lookahead;
    const char* what = lookahead ? "lookahead" : "blocking";
    sim::TraceRecorder full_rec(true);
    sim::TraceRecorder cost_rec(true);
    const auto full = core::lu_functional(xd1_p(3), cfg, a, false, &full_rec);
    const auto cost =
        core::lu_functional(xd1_p(3), cfg, kNoInput, false, &cost_rec);
    expect_pinned(what, cost_rec, cost.run, 3,
                  pin_of(full_rec, full.run, 3));
    EXPECT_EQ(stats_digest(cost.faults), stats_digest(full.faults)) << what;
    EXPECT_GT(full.faults.straggler_reissues, 0u) << what;
    EXPECT_GT(full.faults.checks, 0u) << what;
  }
}

// Both schedules under DMR, a bit-flip and the same degraded link.
TEST(PinnedRuns, FwFunctionalUnderFaults) {
  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);
  core::FwConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  sim::FaultPlan plan(43);
  plan.add_bitflip(one_flip(1, 0, 58));
  plan.add_link_fault(slow_jittery_link());
  cfg.faults = &plan;
  cfg.fault_tolerance = true;

  const Pin pins[] = {
      {6985789821040252252ull, 13499992102960181555ull,
       14726190929385178849ull, 0.0011977384028037798, 99096u, 120u},
      {1290372531398595788ull, 491107276301965942ull,
       1740328679282081224ull, 0.0011057526062726961, 99072u, 120u}};
  const std::uint64_t stats[] = {9779226812589473789ull,
                                 17347054369654475535ull};
  for (const bool lookahead : {false, true}) {
    cfg.lookahead = lookahead;
    const char* what = lookahead ? "lookahead" : "blocking";
    sim::TraceRecorder rec(true);
    const auto res = core::fw_functional(xd1_p(4), cfg, d0, false, &rec);
    expect_pinned(what, rec, res.run, 4, pins[lookahead ? 1 : 0]);
    EXPECT_EQ(stats_digest(res.faults), stats[lookahead ? 1 : 0]) << what;
    EXPECT_EQ(res.faults.bitflips_injected, 1u) << what;
    EXPECT_EQ(res.faults.detected, 1u) << what;
  }
  // DMR's outcome depends on the data, so a cost-only run refuses the
  // bit-flip.
  EXPECT_THROW(core::fw_functional(xd1_p(4), cfg, kNoInput), rcs::Error);

  // The same plan without it: DMR checks and the degraded link run
  // cost-only exactly as in full.
  sim::FaultPlan no_flip(43);
  no_flip.add_link_fault(slow_jittery_link());
  cfg.faults = &no_flip;
  for (const bool lookahead : {false, true}) {
    cfg.lookahead = lookahead;
    const char* what = lookahead ? "lookahead" : "blocking";
    sim::TraceRecorder full_rec(true);
    sim::TraceRecorder cost_rec(true);
    const auto full = core::fw_functional(xd1_p(4), cfg, d0, false, &full_rec);
    const auto cost =
        core::fw_functional(xd1_p(4), cfg, kNoInput, false, &cost_rec);
    expect_pinned(what, cost_rec, cost.run, 4,
                  pin_of(full_rec, full.run, 4));
    EXPECT_EQ(stats_digest(cost.faults), stats_digest(full.faults)) << what;
    EXPECT_GT(full.faults.checks, 0u) << what;
  }
}

/// Runs `cfg` on p nodes, on `a` and cost-only, against one pin; the run on
/// data must also factor bit-identically to potrf_blocked.
void expect_chol_pinned(const std::string& what, const core::CholConfig& cfg,
                        int p, const la::Matrix& a, const Pin& pin) {
  la::Matrix ref = a;
  la::potrf_blocked(ref.view(), static_cast<std::size_t>(cfg.b));
  for (const la::Matrix* in : with_and_without(a)) {
    sim::TraceRecorder rec(true);
    const auto res = core::cholesky_functional(xd1_p(p), cfg, *in, false, &rec);
    expect_pinned(run_name(what, *in), rec, res.run, p, pin);
    if (!in->empty()) {
      EXPECT_TRUE(la::bit_equal(res.factored.view(), ref.view())) << what;
    }
  }
}

TEST(PinnedRuns, CholFunctional) {
  const la::Matrix a = la::spd_matrix(64, 45);
  core::CholConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.b_f = 8;
  expect_chol_pinned("chol", cfg, 4, a,
                     {15121164426357715959ull, 5382681426961855336ull,
                      8880567308735367561ull, 7.7413004843304779e-05, 137880u,
                      90u});

  // What that config leaves out: DMA fan-out, more than one task served
  // per panel step (Eq. 5 solves it to l = 1), the one-sided modes, and a
  // zero-width worker (p = 6 splits b = 4 columns over five workers).
  core::CholConfig single = cfg;
  single.fanout = core::SendFanout::PaperSingle;
  expect_chol_pinned("PaperSingle", single, 4, a,
                     {16949665390810102016ull, 6329326297655461823ull,
                      5268797336536308610ull, 7.4181715954415884e-05, 137880u,
                      90u});
  core::CholConfig l2 = cfg;
  l2.l = 2;
  expect_chol_pinned("l=2", l2, 4, a,
                     {13046593501068649208ull, 8725318081561429266ull,
                      12210926848895747641ull, 7.7413004843304779e-05, 137880u,
                      90u});
  core::CholConfig proc = cfg;
  proc.mode = core::DesignMode::ProcessorOnly;
  proc.b_f = -1;
  expect_chol_pinned("processor-only", proc, 4, a,
                     {8362344117157221298ull, 8270298001466055774ull,
                      1447468487639712694ull, 7.2613004843304757e-05, 137880u,
                      0u});
  core::CholConfig fpga = proc;
  fpga.mode = core::DesignMode::FpgaOnly;
  expect_chol_pinned("FPGA-only", fpga, 4, a,
                     {13561549012820752364ull, 2209931034175159848ull,
                      17024498550061036845ull, 8.135146638176631e-05, 137880u,
                      90u});
  core::CholConfig narrow = cfg;
  narrow.n = 16;
  narrow.b = 4;
  narrow.b_f = 2;
  expect_chol_pinned("p=6", narrow, 6, la::spd_matrix(16, 45),
                     {10308275145693007037ull, 18154776526803095879ull,
                      6733043266912187819ull, 8.7375535612535674e-06, 16040u,
                      100u});
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
  for (const bool data : {true, false}) {
    sim::TraceRecorder rec1(true);
    const auto one = core::mm_functional(xd1_p(1), cfg, data ? a1 : kNoInput,
                                         data ? b1 : kNoInput, false, &rec1);
    expect_pinned(data ? "p=1" : "p=1 (cost-only)", rec1, one.run, 1,
                  {12450039251313160539ull, 10353160638718084088ull,
                   8625503926333584822ull, 0.00013193846153846154, 0u, 9u});
  }

  // Root-fed distributed multiply over two workers.
  cfg.n = 96;
  cfg.b = 48;
  cfg.b_f = 24;
  const la::Matrix a3 = la::random_matrix(96, 96, 801);
  const la::Matrix b3 = la::random_matrix(96, 96, 803);
  for (const bool data : {true, false}) {
    sim::TraceRecorder rec3(true);
    const auto three =
        core::mm_functional(xd1_p(3), cfg, data ? a3 : kNoInput,
                            data ? b3 : kNoInput, false, &rec3);
    expect_pinned(data ? "p=3" : "p=3 (cost-only)", rec3, three.run, 3,
                  {8164378654010838004ull, 15487512789177810ull,
                   15628955785727247086ull, 0.00045411692307692296, 664192u,
                   104u});
  }
}

// A 64-rank world at the reduced lu_wide benchmark shape: mostly zero-width
// worker shares and thousands of trace events, the same mix the recorder
// and analyzer see at p = 1024.
TEST(PinnedRuns, LuFunctionalFiberWorld) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  for (const la::Matrix* in : with_and_without(a)) {
    sim::TraceRecorder rec(true);
    const auto res = core::lu_functional(xd1_p(64), cfg, *in, false, &rec);
    const rcs::obs::cp::Analysis an =
        core::analyze_run(rec, 64, res.run.seconds);
    const std::string what = run_name("p=64", *in);
    EXPECT_EQ(csv_digest(rec), 6646146629144989526ull) << what;
    EXPECT_EQ(analysis_digest(an), 3103981286552281356ull) << what;
    EXPECT_EQ(rec.event_count(), 8934u) << what;
    EXPECT_EQ(an.critical_path.size(), 1856u) << what;
  }
}

TEST(PinnedRuns, CostOnlyPaperPoints) {
  const core::SystemParams xd1 = core::SystemParams::cray_xd1();
  core::LuConfig lu;
  lu.n = 30000;
  lu.b = 3000;
  EXPECT_DOUBLE_EQ(core::lu_functional(xd1, lu, kNoInput).run.seconds,
                   938.24707066584585);
  core::FwConfig fw;
  fw.n = 92160;
  fw.b = 256;
  EXPECT_DOUBLE_EQ(core::fw_functional(xd1, fw, kNoInput).run.seconds,
                   236187.88602585436);
  core::CholConfig chol;
  chol.n = 30000;
  chol.b = 3000;
  EXPECT_DOUBLE_EQ(core::cholesky_functional(xd1, chol, kNoInput).run.seconds,
                   491.14258779902741);
  core::MmConfig mm;
  mm.n = 30000;
  mm.b = 3000;
  EXPECT_DOUBLE_EQ(
      core::mm_functional(xd1, mm, kNoInput, kNoInput).run.seconds,
      1869.5857934120154);
}

}  // namespace
