// Tests for the network-contention replay analyzer: synthetic send lists
// with known queueing, and the traced sends of real runs.

#include <vector>

#include <gtest/gtest.h>

#include "core/rcs.hpp"
#include "net/contention.hpp"

namespace net = rcs::net;
namespace core = rcs::core;
namespace la = rcs::linalg;
namespace sim = rcs::sim;

namespace {

net::NetworkParams slow_net() {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB/s: second-scale transfers
  return np;
}

/// A blocking send's trace event: rank `src` sends `bytes` to `dst` over the
/// wire interval [depart, arrival].
sim::CommEvent send_event(int src, int dst, std::uint64_t bytes, double depart,
                          double arrival) {
  sim::CommEvent ev;
  ev.kind = sim::CommEvent::Kind::Send;
  ev.rank = src;
  ev.peer = dst;
  ev.t0 = depart;
  ev.t1 = arrival;
  ev.depart = depart;
  ev.arrival = arrival;
  ev.bytes = bytes;
  return ev;
}

// A traced world records every send and isend once, on the sender, and the
// replay counts those events and skips the receives.
TEST(Contention, TraceRecordsAllSends) {
  net::World world(3, slow_net());
  std::vector<sim::TraceRecorder> traces(3, sim::TraceRecorder(true));
  world.run([&](net::Comm& comm) {
    comm.set_trace(&traces[static_cast<std::size_t>(comm.rank())]);
    if (comm.rank() == 0) {
      const std::vector<std::byte> buf(1000);
      comm.send(1, 1, net::Payload::copy_of(buf.data(), buf.size()));
      comm.isend(2, 1, net::Payload::copy_of(buf.data(), buf.size()));
    } else {
      comm.recv(0, 1);
    }
  });
  sim::TraceRecorder merged(true);
  merged.merge_from(traces);

  std::vector<int> peers;
  for (const sim::CommEvent& ev : merged.comm_events()) {
    if (ev.kind == sim::CommEvent::Kind::Recv) continue;
    EXPECT_EQ(ev.rank, 0);
    EXPECT_EQ(ev.bytes, 1000u);
    EXPECT_LT(ev.depart, ev.arrival);
    peers.push_back(ev.peer);
  }
  EXPECT_EQ(peers, (std::vector<int>{1, 2}));
  const auto rep = net::analyze_contention(merged.comm_events(), slow_net(), 3,
                                           net::LinkModel::Crossbar);
  EXPECT_EQ(rep.messages, 2u);
}

TEST(Contention, CrossbarAddsNothingForDistinctPairs) {
  // Two sends to distinct destinations at the same instant: a crossbar
  // carries both; a shared bus serializes them.
  const std::vector<sim::CommEvent> log{
      send_event(0, 1, 1'000'000, 0.0, 1.0),
      send_event(2, 3, 1'000'000, 0.0, 1.0),
  };
  const auto xbar = net::analyze_contention(log, slow_net(), 4,
                                            net::LinkModel::Crossbar);
  EXPECT_NEAR(xbar.max_added_delay, 0.0, 1e-9);
  EXPECT_NEAR(xbar.slowdown(), 1.0, 1e-9);
  const auto bus =
      net::analyze_contention(log, slow_net(), 4, net::LinkModel::SharedBus);
  EXPECT_NEAR(bus.max_added_delay, 1.0, 1e-9);
  EXPECT_NEAR(bus.replayed_last_arrival, 2.0, 1e-9);
  EXPECT_EQ(bus.busiest_link, "bus");
}

TEST(Contention, IngressCollisionDetectedByPerNodeLinks) {
  // Two different sources target the same destination simultaneously: the
  // crossbar model hides the collision, per-node ingress links expose it.
  const std::vector<sim::CommEvent> log{
      send_event(0, 2, 1'000'000, 0.0, 1.0),
      send_event(1, 2, 1'000'000, 0.0, 1.0),
  };
  const auto xbar = net::analyze_contention(log, slow_net(), 3,
                                            net::LinkModel::Crossbar);
  EXPECT_NEAR(xbar.max_added_delay, 0.0, 1e-9);
  const auto links = net::analyze_contention(log, slow_net(), 3,
                                             net::LinkModel::PerNodeLinks);
  EXPECT_GT(links.max_added_delay, 0.5);
  EXPECT_EQ(links.busiest_link, "ingress.2");
  EXPECT_GT(links.busiest_link_utilization, 0.9);
}

TEST(Contention, SequentialSendsNeverQueue) {
  // Messages that never overlap in time add no delay under any model.
  const std::vector<sim::CommEvent> log{
      send_event(0, 1, 1'000'000, 0.0, 1.0),
      send_event(0, 1, 1'000'000, 1.0, 2.0),
      send_event(1, 0, 1'000'000, 2.0, 3.0),
  };
  for (auto model : {net::LinkModel::Crossbar, net::LinkModel::PerNodeLinks,
                     net::LinkModel::SharedBus}) {
    const auto rep = net::analyze_contention(log, slow_net(), 2, model);
    EXPECT_NEAR(rep.max_added_delay, 0.0, 1e-9) << net::to_string(model);
    EXPECT_NEAR(rep.slowdown(), 1.0, 1e-9);
  }
}

TEST(Contention, EmptyLogIsClean) {
  const auto rep = net::analyze_contention({}, slow_net(), 4,
                                           net::LinkModel::SharedBus);
  EXPECT_EQ(rep.messages, 0u);
  EXPECT_NEAR(rep.slowdown(), 1.0, 1e-9);
}

TEST(Contention, FunctionalLuRunValidatesCrossbarAssumption) {
  // End to end: a real hybrid LU run's traced sends replayed under the
  // three link models. The crossbar (the paper's assumption) and the XD1's
  // per-node links do not move the last arrival; a shared bus delays single
  // messages by more than the per-node links do.
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = 4;
  core::LuConfig cfg;
  cfg.n = 96;
  cfg.b = 24;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.b_f = 8;
  const la::Matrix a = la::diagonally_dominant(96, 2027);
  sim::TraceRecorder trace(true);
  core::lu_functional(sys, cfg, a, false, &trace);
  const auto& events = trace.comm_events();

  const auto xbar = net::analyze_contention(events, sys.network, sys.p,
                                            net::LinkModel::Crossbar);
  const auto links = net::analyze_contention(events, sys.network, sys.p,
                                             net::LinkModel::PerNodeLinks);
  const auto bus = net::analyze_contention(events, sys.network, sys.p,
                                           net::LinkModel::SharedBus);
  ASSERT_GT(xbar.messages, 10u);
  EXPECT_NEAR(xbar.slowdown(), 1.0, 1e-9);
  EXPECT_NEAR(xbar.max_added_delay, 0.0, 1e-15);
  EXPECT_LT(links.slowdown(), 1.10);  // per-node links: assumption holds
  // The bus queues messages the per-node links carry side by side.
  EXPECT_GT(bus.max_added_delay, links.max_added_delay);
}

}  // namespace
