// Microbenchmarks of the simulation runtime: timeline reservations, MiniMPI
// message latency/throughput, and the cost-only runs at the paper's
// operating points (which every figure bench makes).

#include <benchmark/benchmark.h>

#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "net/minimpi.hpp"
#include "sim/engine.hpp"

using namespace rcs;

namespace {

void BM_TimelineReserve(benchmark::State& state) {
  sim::Timeline tl;
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tl.reserve(t, 1.0));
    t += 0.5;
  }
}
BENCHMARK(BM_TimelineReserve);

void BM_MiniMpiPingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    net::NetworkParams np;
    net::World world(2, np);
    const int rounds = 50;
    world.run([&](net::Comm& comm) {
      std::vector<std::byte> buf(bytes);
      for (int i = 0; i < rounds; ++i) {
        if (comm.rank() == 0) {
          comm.send(1, i, net::Payload::copy_of(buf.data(), buf.size()));
          comm.recv(1, i);
        } else {
          comm.recv(0, i);
          comm.send(0, i, net::Payload::copy_of(buf.data(), buf.size()));
        }
      }
    });
    benchmark::DoNotOptimize(world.makespan());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_MiniMpiPingPong)->Arg(8)->Arg(65536);

// The opMS fan-in: every rank but 0 sends rank 0 eight small messages,
// tags 0-7, and rank 0 receives them tag by tag, highest rank first.
// Timed per message in wall time, world set-up included: the ranks run on
// the pool's threads, not only on the timing thread.
void BM_MiniMpiFanIn(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  constexpr int kTags = 8;
  for (auto _ : state) {
    net::World world(p, net::NetworkParams{});
    world.run([&](net::Comm& comm) {
      if (comm.rank() != 0) {
        for (int tag = 0; tag < kTags; ++tag) comm.send_value(0, tag, tag);
        return;
      }
      for (int tag = 0; tag < kTags; ++tag) {
        for (int src = p - 1; src >= 1; --src) (void)comm.recv(src, tag);
      }
    });
    benchmark::DoNotOptimize(world.makespan());
  }
  state.SetItemsProcessed(state.iterations() * (p - 1) * kTags);
}
BENCHMARK(BM_MiniMpiFanIn)->Arg(64)->Arg(1024)->UseRealTime();

void BM_LuCostOnlyPaperPoint(benchmark::State& state) {
  const auto sys = core::SystemParams::cray_xd1();
  core::LuConfig cfg;
  cfg.n = 30000;
  cfg.b = 3000;
  cfg.mode = core::DesignMode::Hybrid;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lu_functional(sys, cfg, {}).run.seconds);
  }
}
// Wall time: the ranks run on the pool's threads, as in the fan-in above.
BENCHMARK(BM_LuCostOnlyPaperPoint)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FwCostOnlyPaperPoint(benchmark::State& state) {
  const auto sys = core::SystemParams::cray_xd1();
  core::FwConfig cfg;
  cfg.n = 92160;
  cfg.b = 256;
  cfg.mode = core::DesignMode::Hybrid;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fw_functional(sys, cfg, {}).run.seconds);
  }
}
BENCHMARK(BM_FwCostOnlyPaperPoint)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
