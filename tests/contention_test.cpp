// Tests for message logging and the network-contention replay analyzer.

#include <gtest/gtest.h>

#include "core/rcs.hpp"
#include "net/contention.hpp"

namespace net = rcs::net;
namespace core = rcs::core;
namespace la = rcs::linalg;

namespace {

net::NetworkParams slow_net() {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB/s: second-scale transfers
  return np;
}

TEST(MessageLog, RecordsAllSends) {
  net::World world(3, slow_net());
  world.set_message_logging(true);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::byte> buf(1000);
      comm.send(1, 1, net::Payload::copy_of(buf.data(), buf.size()));
      comm.isend(2, 1, net::Payload::copy_of(buf.data(), buf.size()));
    } else {
      comm.recv(0, 1);
    }
  });
  const auto log = world.message_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].src, 0);
  EXPECT_EQ(log[0].bytes, 1000u);
  EXPECT_GT(log[0].arrival, log[0].depart);
}

TEST(MessageLog, DisabledByDefault) {
  net::World world(2, slow_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      const double v = 1.0;
      comm.send_doubles(1, 1, &v, 1);
    } else {
      comm.recv(0, 1);
    }
  });
  EXPECT_TRUE(world.message_log().empty());
}

TEST(Contention, CrossbarAddsNothingForDistinctPairs) {
  // Two sends to distinct destinations at the same instant: a crossbar
  // carries both; a shared bus serializes them.
  std::vector<net::MessageEvent> log{
      {0, 1, 1'000'000, 0.0, 1.0},
      {2, 3, 1'000'000, 0.0, 1.0},
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
  std::vector<net::MessageEvent> log{
      {0, 2, 1'000'000, 0.0, 1.0},
      {1, 2, 1'000'000, 0.0, 1.0},
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
  std::vector<net::MessageEvent> log{
      {0, 1, 1'000'000, 0.0, 1.0},
      {0, 1, 1'000'000, 1.0, 2.0},
      {1, 0, 1'000'000, 2.0, 3.0},
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
  // End to end: a real hybrid LU run's traffic replayed under the three
  // link models. The crossbar (the paper's assumption) and the XD1's
  // per-node links barely move; a shared bus visibly slows the run.
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = 4;
  core::LuConfig cfg;
  cfg.n = 96;
  cfg.b = 24;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.b_f = 8;
  const la::Matrix a = la::diagonally_dominant(96, 2027);
  std::vector<net::MessageEvent> log;
  core::lu_functional(sys, cfg, a, false, nullptr, &log);
  ASSERT_GT(log.size(), 10u);

  const auto xbar =
      net::analyze_contention(log, sys.network, sys.p, net::LinkModel::Crossbar);
  const auto links = net::analyze_contention(log, sys.network, sys.p,
                                             net::LinkModel::PerNodeLinks);
  const auto bus =
      net::analyze_contention(log, sys.network, sys.p, net::LinkModel::SharedBus);
  EXPECT_NEAR(xbar.slowdown(), 1.0, 1e-9);
  EXPECT_LT(links.slowdown(), 1.10);  // per-node links: assumption holds
  EXPECT_GT(bus.slowdown(), links.slowdown());  // the bus is strictly worse
}

}  // namespace
