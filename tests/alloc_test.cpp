// Heap allocated by one functional LU run, against the bytes the run puts
// on the simulated network. The panel packs each block once and every
// destination shares that buffer, and receivers read stripes in place, so a
// run allocates far less than it sends; a copy per destination would
// allocate more than it sends. A cost-only LU or Cholesky run at the
// paper's operating point holds no block at all: its heap stays in
// megabytes while one b x b block is 72 MB. A cost-only Floyd-Warshall run
// at Fig. 9's point reuses its per-wave scratch, so it allocates less often
// than it runs waves, and graph::fw_block allocates nothing in any task
// form. The critical-path analysis of a traced run allocates a fixed number
// of arrays, however many ranks and events the trace holds.
//
// This binary replaces the global allocation functions, plain and
// over-aligned, so that it counts every operator new on every thread. It
// holds no other test than these heap counts and a check of the counter
// itself.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/cholesky.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/system.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/generate.hpp"
#include "sim/trace.hpp"

namespace {

std::atomic<std::uint64_t> g_heap_bytes{0};
std::atomic<std::uint64_t> g_heap_calls{0};

void* counted_new(std::size_t bytes) {
  g_heap_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_heap_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes != 0 ? bytes : 1)) return p;
  throw std::bad_alloc();
}

// Over-aligned types (alignas above the default new alignment) come here.
void* counted_new(std::size_t bytes, std::align_val_t align) {
  g_heap_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_heap_calls.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a whole number of alignments.
  const std::size_t rounded = (bytes + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_new(bytes); }
void* operator new[](std::size_t bytes) { return counted_new(bytes); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_new(bytes, align);
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return counted_new(bytes, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

namespace core = rcs::core;

struct alignas(64) CacheLine {
  double x[8];
};

// Stores each allocation where the compiler must assume it is read, so that
// no new/delete pair below is elided.
void* volatile g_sink = nullptr;

TEST(HeapCounter, CountsPlainAndOverAlignedNew) {
  const std::uint64_t bytes0 = g_heap_bytes.load();
  double* plain = new double[4];
  g_sink = plain;
  CacheLine* line = new CacheLine;
  g_sink = line;
  EXPECT_GE(g_heap_bytes.load() - bytes0,
            4 * sizeof(double) + sizeof(CacheLine));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(line) % alignof(CacheLine), 0u);
  delete line;
  delete[] plain;
}

TEST(HeapPerRun, LuFunctionalAllocatesLessThanItSends) {
  const core::SystemParams sys = core::SystemParams::cray_xd1().with_nodes(64);
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  const rcs::linalg::Matrix a = rcs::linalg::diagonally_dominant(64, 11);

  // Warm-up: the pool's threads and the process-wide registries allocate
  // once, on first use.
  (void)core::lu_functional(sys, cfg, a);

  const std::uint64_t bytes0 = g_heap_bytes.load();
  const std::uint64_t calls0 = g_heap_calls.load();
  const core::LuFunctionalResult res = core::lu_functional(sys, cfg, a);
  const std::uint64_t heap = g_heap_bytes.load() - bytes0;
  const std::uint64_t calls = g_heap_calls.load() - calls0;

  EXPECT_GT(res.run.bytes_on_network, 0u);
  EXPECT_LT(heap, res.run.bytes_on_network)
      << "one untraced run allocated " << heap << " heap bytes in " << calls
      << " allocations for " << res.run.bytes_on_network
      << " bytes on the network";
}

// lu_dense's design at n = 256 (b = 64, p = 3, b_f = 32): 14 opMM tasks
// over four iterations, each computed as two worker shares. Workers pack
// each stripe once per iteration into storage kept across iterations, and
// build each E share in the payload that carries it, so the shares add no
// allocation but their messages. The bound is this design's count (234 to
// 243 at RCS_THREADS 1 to 7) plus a margin; packing every operand per share
// into an E buffer per task made 347 to 353.
TEST(HeapPerRun, LuFunctionalPacksOncePerIteration) {
  const core::SystemParams sys = core::SystemParams::cray_xd1().with_nodes(3);
  core::LuConfig cfg;
  cfg.n = 256;
  cfg.b = 64;
  cfg.mode = core::DesignMode::Hybrid;
  const rcs::linalg::Matrix a = rcs::linalg::diagonally_dominant(256, 12);

  (void)core::lu_functional(sys, cfg, a);  // warm-up, as above

  const std::uint64_t calls0 = g_heap_calls.load();
  const core::LuFunctionalResult res = core::lu_functional(sys, cfg, a);
  const std::uint64_t calls = g_heap_calls.load() - calls0;

  EXPECT_EQ(res.partition.b_f, 32);
  EXPECT_LE(calls, 270u) << "one run at n = 256, b = 64, p = 3 made " << calls
                         << " heap allocations";
}

TEST(HeapPerRun, CostOnlyLuAtPaperPointHoldsNoBlocks) {
  const core::SystemParams sys = core::SystemParams::cray_xd1();
  core::LuConfig lu;
  lu.n = 30000;
  lu.b = 3000;
  lu.mode = core::DesignMode::Hybrid;
  core::CholConfig chol;
  chol.n = 30000;
  chol.b = 3000;
  chol.mode = core::DesignMode::Hybrid;
  const rcs::linalg::Matrix none;

  auto expect_no_blocks = [](const char* what, const auto& run) {
    (void)run();  // warm-up, as above

    const std::uint64_t bytes0 = g_heap_bytes.load();
    const std::uint64_t calls0 = g_heap_calls.load();
    const core::RunReport rep = run();
    const std::uint64_t heap = g_heap_bytes.load() - bytes0;
    const std::uint64_t calls = g_heap_calls.load() - calls0;

    EXPECT_GT(rep.bytes_on_network, 100'000'000'000u) << what;
    EXPECT_LT(heap, 4u << 20)
        << "one cost-only " << what << " run allocated " << heap
        << " heap bytes in " << calls << " allocations for "
        << rep.bytes_on_network << " bytes on the network";
  };
  expect_no_blocks("LU",
                   [&] { return core::lu_functional(sys, lu, none).run; });
  expect_no_blocks("Cholesky", [&] {
    return core::cholesky_functional(sys, chol, none).run;
  });
}

TEST(HeapPerRun, CostOnlyFwAllocatesLessThanOncePerWave) {
  const core::SystemParams sys = core::SystemParams::cray_xd1();
  core::FwConfig cfg;
  cfg.b = 256;
  cfg.mode = core::DesignMode::Hybrid;
  const rcs::linalg::Matrix none;
  cfg.n = cfg.b * sys.p;
  (void)core::fw_functional(sys, cfg, none);  // warm-up, as above

  cfg.n = 92160;
  const std::uint64_t bytes0 = g_heap_bytes.load();
  const std::uint64_t calls0 = g_heap_calls.load();
  const core::FwFunctionalResult res = core::fw_functional(sys, cfg, none);
  const std::uint64_t heap = g_heap_bytes.load() - bytes0;
  const std::uint64_t calls = g_heap_calls.load() - calls0;

  // Each rank runs one wave of block tasks per pivot row in every
  // iteration: p (n/b)^2 waves in all.
  const std::uint64_t nb = static_cast<std::uint64_t>(cfg.n / cfg.b);
  const std::uint64_t waves = static_cast<std::uint64_t>(sys.p) * nb * nb;
  EXPECT_GT(res.run.bytes_on_network, 0u);
  EXPECT_LT(calls, waves)
      << "one cost-only run made " << calls << " heap allocations ("
      << heap << " bytes) in " << waves << " rank-waves";
}

// core::analyze_run reads the merged recorder in place: a handful of flat
// arrays per run (name classes, per-rank attribution and index slices, the
// interval and wire indexes, the reserved path), none per rank or per
// event. At the 64-rank fiber world of PinnedRuns.LuFunctionalFiberWorld
// (8,934 events) and at the lu_wide point (1,024 ranks, 1.3 M events) it
// makes 11 allocations, of 1.11 MB and 137.7 MB; the count's bound is 16.
// A copy of the trace into per-rank pointer lists made 920 and 19,620
// allocations, of 1,227,692 and 194,901,628 bytes: those are the byte
// bounds.
TEST(HeapPerRun, AnalyzeRunAllocatesPerRunNotPerRank) {
  struct Point {
    int p;
    long long n;
    bool data;
    std::uint64_t max_bytes;
  };
  for (const Point& pt : {Point{64, 64, true, 1'227'692},
                          Point{1024, 128, false, 194'901'628}}) {
    const core::SystemParams sys =
        core::SystemParams::cray_xd1().with_nodes(pt.p);
    core::LuConfig cfg;
    cfg.n = pt.n;
    cfg.b = 16;
    cfg.mode = core::DesignMode::Hybrid;
    const rcs::linalg::Matrix a =
        pt.data ? rcs::linalg::diagonally_dominant(pt.n, 1234)
                : rcs::linalg::Matrix{};
    rcs::sim::TraceRecorder rec(true);
    const core::LuFunctionalResult res =
        core::lu_functional(sys, cfg, a, false, &rec);
    (void)core::analyze_run(rec, pt.p, res.run.seconds);  // warm-up

    const std::uint64_t bytes0 = g_heap_bytes.load();
    const std::uint64_t calls0 = g_heap_calls.load();
    const rcs::obs::cp::Analysis an =
        core::analyze_run(rec, pt.p, res.run.seconds);
    const std::uint64_t heap = g_heap_bytes.load() - bytes0;
    const std::uint64_t calls = g_heap_calls.load() - calls0;

    EXPECT_TRUE(an.invariants_hold()) << "p=" << pt.p;
    EXPECT_GT(an.critical_path.size(), 1000u) << "p=" << pt.p;
    EXPECT_LE(calls, 16u) << "analyze_run at p=" << pt.p << " made " << calls
                          << " heap allocations (" << heap << " bytes) for "
                          << rec.event_count() << " trace events";
    EXPECT_LE(heap, pt.max_bytes) << "p=" << pt.p;
  }
}

// One call per FW task form at b = 64, on fw_functional's layout (a local
// store of four block-columns, D_tt packed): op3 and op22 take the register
// paths, op21 and op1 the row loop. None may allocate.
TEST(HeapPerCall, FwBlockAllocatesNothingInAnyForm) {
  constexpr std::size_t b = 64;
  rcs::linalg::Matrix store = rcs::graph::random_digraph(4 * b, 3, 0.5);
  const rcs::linalg::Matrix dtt = rcs::graph::random_digraph(b, 4, 0.5);
  auto blk = [&](std::size_t q, std::size_t c) {
    return store.block(q * b, c * b, b, b);
  };

  const std::uint64_t calls0 = g_heap_calls.load();
  rcs::graph::fw_block(blk(1, 1), blk(1, 1), blk(1, 1));   // op1
  rcs::graph::fw_block(blk(1, 2), dtt.view(), blk(1, 2));  // op21
  rcs::graph::fw_block(blk(2, 1), blk(2, 1), dtt.view());  // op22
  rcs::graph::fw_block(blk(2, 2), blk(2, 1), blk(1, 2));   // op3
  EXPECT_EQ(g_heap_calls.load() - calls0, 0u);
}

}  // namespace
