// Microbenchmarks of the simulation runtime: timeline reservations, MiniMPI
// message latency/throughput, and the analytic schedule simulators
// themselves (which every figure bench calls).

#include <benchmark/benchmark.h>

#include "core/fw_analytic.hpp"
#include "core/lu_analytic.hpp"
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
          comm.send_bytes(1, i, buf.data(), buf.size());
          comm.recv(1, i);
        } else {
          comm.recv(0, i);
          comm.send_bytes(0, i, buf.data(), buf.size());
        }
      }
    });
    benchmark::DoNotOptimize(world.makespan());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_MiniMpiPingPong)->Arg(8)->Arg(65536);

void BM_LuAnalyticFullRun(benchmark::State& state) {
  const auto sys = core::SystemParams::cray_xd1();
  core::LuConfig cfg;
  cfg.n = 30000;
  cfg.b = 3000;
  cfg.mode = core::DesignMode::Hybrid;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lu_analytic(sys, cfg).run.seconds);
  }
}
BENCHMARK(BM_LuAnalyticFullRun);

void BM_FwAnalyticFullRun(benchmark::State& state) {
  const auto sys = core::SystemParams::cray_xd1();
  core::FwConfig cfg;
  cfg.n = 92160;
  cfg.b = 256;
  cfg.mode = core::DesignMode::Hybrid;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fw_analytic(sys, cfg).run.seconds);
  }
}
BENCHMARK(BM_FwAnalyticFullRun);

}  // namespace
