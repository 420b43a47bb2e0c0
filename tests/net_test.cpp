// Tests for MiniMPI: point-to-point messaging, collectives, virtual-time
// semantics (§4.3 accounting), determinism, and the matrix channel.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <mutex>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "core/analysis.hpp"
#include "core/functional_run.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "net/matrix_channel.hpp"
#include "net/minimpi.hpp"
#include "obs/metrics.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

namespace net = rcs::net;
namespace obs = rcs::obs;
namespace sim = rcs::sim;
using rcs::linalg::Matrix;

namespace {

net::NetworkParams fast_net() {
  net::NetworkParams np;
  np.bytes_per_s = 1e9;
  np.latency_s = 0.0;
  return np;
}

/// A payload of `bytes` zero bytes.
net::Payload zeros(std::size_t bytes) {
  return net::Payload::build(
      bytes, [&](std::byte* out) { std::memset(out, 0, bytes); });
}

/// Runs `rank_main` on `world` and expects run() to rethrow the rank error
/// whose message is `what`, not one of the WorldAborted errors it induced.
void expect_rank_error(net::World& world,
                       const std::function<void(net::Comm&)>& rank_main,
                       const char* what) {
  try {
    world.run(rank_main);
    ADD_FAILURE() << "expected \"" << what << "\"";
  } catch (const net::WorldAborted& e) {
    ADD_FAILURE() << "a secondary abort escaped: " << e.what();
  } catch (const rcs::Error& e) {
    EXPECT_STREQ(e.what(), what);
  }
}

TEST(MiniMpi, SendRecvMovesBytes) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      const double payload[3] = {1.0, 2.0, 3.0};
      comm.send_doubles(1, 7, payload, 3);
    } else {
      net::Message m = comm.recv(0, 7);
      auto vals = m.as_doubles();
      ASSERT_EQ(vals.size(), 3u);
      EXPECT_EQ(vals[1], 2.0);
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.tag, 7);
    }
  });
}

TEST(MiniMpi, TagMatchingIsSelective) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 111);
      comm.send_value(1, 2, 222);
    } else {
      // Receive out of send order: tag matching must pick the right one.
      EXPECT_EQ(comm.recv(0, 2).as<int>(), 222);
      EXPECT_EQ(comm.recv(0, 1).as<int>(), 111);
    }
  });
}

TEST(MiniMpi, SendChargesSenderClock) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(125'000'000 / 8, 1.0);  // 125 MB -> 0.125 s
      comm.send_doubles(1, 3, big.data(), big.size());
      EXPECT_NEAR(comm.clock().now(), 0.125, 1e-9);
    } else {
      net::Message m = comm.recv(0, 3);
      EXPECT_NEAR(m.arrival, 0.125, 1e-9);
      EXPECT_NEAR(comm.clock().now(), 0.125, 1e-9);
    }
  });
}

TEST(MiniMpi, RecvNeverMovesClockBackwards) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 1);  // tiny: arrives almost immediately
    } else {
      comm.clock().advance(10.0);  // receiver was busy computing
      comm.recv(0, 1);
      EXPECT_GE(comm.clock().now(), 10.0);
    }
  });
}

TEST(MiniMpi, FanOutDeliversToAll) {
  net::World world(4, fast_net());
  std::atomic<int> sum{0};
  world.run([&](net::Comm& comm) {
    net::Payload payload;
    if (comm.rank() == 2) {
      const double mine[] = {5.0, 6.0};
      payload = net::Payload::copy_of(mine, sizeof(mine));
      rcs::core::fan_out(comm, /*dma=*/false, {{9, payload}});
    } else {
      payload = comm.recv(2, 9).payload;
    }
    const std::vector<double> v =
        net::Message{.payload = std::move(payload)}.as_doubles();
    ASSERT_EQ(v.size(), 2u);
    sum += static_cast<int>(v[0] + v[1]);
  });
  EXPECT_EQ(sum.load(), 4 * 11);
}

TEST(MiniMpi, FanOutIsRootSerialized) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB/s so costs are visible
  net::World world(3, np);
  world.run([](net::Comm& comm) {
    const std::vector<double> v(125'000, 1.0);  // 1 MB -> 1 s per destination
    if (comm.rank() == 0) {
      rcs::core::fan_out(
          comm, /*dma=*/false,
          {{1, net::Payload::copy_of(v.data(), v.size() * sizeof(double))}});
      EXPECT_NEAR(comm.clock().now(), 2.0, 1e-9);  // two serialized sends
    } else {
      comm.recv(0, 1);
      // rank 1 gets it after 1 s, rank 2 after 2 s.
      EXPECT_NEAR(comm.clock().now(), comm.rank() == 1 ? 1.0 : 2.0, 1e-9);
    }
  });
}

TEST(MiniMpi, BarrierSynchronizesClocks) {
  net::World world(3, fast_net());
  world.run([](net::Comm& comm) {
    comm.clock().advance(comm.rank() * 2.0);  // 0, 2, 4 seconds
    comm.barrier();
    EXPECT_GE(comm.clock().now(), 4.0);
    EXPECT_LT(comm.clock().now(), 4.1);  // only tiny control traffic on top
  });
}

TEST(MiniMpi, MakespanReflectsLatestClock) {
  net::World world(3, fast_net());
  world.run([](net::Comm& comm) {
    comm.clock().advance(comm.rank() == 1 ? 7.0 : 1.0);
  });
  EXPECT_DOUBLE_EQ(world.makespan(), 7.0);
}

TEST(MiniMpi, RankExceptionPropagates) {
  net::World world(2, fast_net());
  EXPECT_THROW(world.run([](net::Comm& comm) {
    if (comm.rank() == 1) throw rcs::Error("boom");
  }),
               rcs::Error);
}

TEST(MiniMpi, SelfSendRejected) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send_value(0, 1, 1), rcs::Error);
    }
  });
}

TEST(MiniMpi, DeterministicTimingAcrossRuns) {
  auto run_once = [] {
    net::World world(4, fast_net());
    world.run([](net::Comm& comm) {
      // Ring exchange with growing payloads.
      std::vector<double> v(1000 * (comm.rank() + 1), 1.0);
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + 3) % comm.size();
      comm.send_doubles(next, 1, v.data(), v.size());
      comm.recv(prev, 1);
      comm.barrier();
    });
    return world.makespan();
  };
  const double t1 = run_once();
  const double t2 = run_once();
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(MiniMpi, BytesSentAccounted) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      const double v = 1.0;
      comm.send_doubles(1, 1, &v, 1);
      EXPECT_EQ(comm.bytes_sent(), 8u);
    } else {
      comm.recv(0, 1);
      EXPECT_EQ(comm.bytes_sent(), 0u);
    }
  });
}

TEST(MiniMpi, IsendOverlapsCpu) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB/s: transfers are slow and visible
  np.latency_s = 1e-6;
  net::World world(2, np);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(125'000, 1.0);  // 1 MB -> 1 s on the wire
      comm.isend(1, 3, net::Payload::copy_of(big.data(), big.size() * 8));
      // The CPU paid only the setup latency.
      EXPECT_NEAR(comm.clock().now(), 1e-6, 1e-9);
      EXPECT_NEAR(comm.nic_free_at(), 1.0 + 1e-6, 1e-6);
    } else {
      net::Message m = comm.recv(0, 3);
      EXPECT_NEAR(m.arrival, 1.0, 1e-3);  // arrival gated on the NIC
      EXPECT_EQ(m.payload.size(), 1'000'000u);
    }
  });
}

TEST(MiniMpi, IsendsSerializeOnTheNic) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;
  net::World world(3, np);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      const net::Payload buf = zeros(500'000);  // 0.5 s each
      comm.isend(1, 1, buf);
      comm.isend(2, 1, buf);
      EXPECT_NEAR(comm.nic_free_at(), 1.0, 1e-6);
    } else if (comm.rank() == 1) {
      EXPECT_NEAR(comm.recv(0, 1).arrival, 0.5, 1e-3);
    } else {
      EXPECT_NEAR(comm.recv(0, 1).arrival, 1.0, 1e-3);
    }
  });
}

TEST(MiniMpi, TreeBcastDeliversToAll) {
  for (int p : {2, 3, 4, 5, 7, 8}) {
    net::World world(p, fast_net());
    world.run([](net::Comm& comm) {
      net::Payload payload;
      if (comm.rank() == 1 % comm.size()) {
        const std::vector<std::byte> bytes(64, std::byte{42});
        payload = net::Payload::copy_of(bytes.data(), bytes.size());
      }
      payload = comm.bcast_tree(1 % comm.size(), 9, std::move(payload));
      ASSERT_EQ(payload.size(), 64u);
      EXPECT_EQ(payload.data()[10], std::byte{42});
    });
  }
}

TEST(MiniMpi, TreeBcastBeatsSerialBcastInSimTime) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB/s
  const std::size_t bytes = 1'000'000;
  auto last_arrival = [&](bool tree) {
    net::World world(8, np);
    world.run([&](net::Comm& comm) {
      net::Payload payload;
      if (comm.rank() == 0) payload = zeros(bytes);
      if (tree) {
        comm.bcast_tree(0, 1, std::move(payload));
      } else if (comm.rank() == 0) {
        rcs::core::fan_out(comm, /*dma=*/false, {{1, std::move(payload)}});
      } else {
        comm.recv(0, 1);
      }
    });
    return world.makespan();
  };
  const double serial = last_arrival(false);
  const double tree = last_arrival(true);
  EXPECT_NEAR(serial, 7.0, 0.01);  // root sends 7 copies back to back
  EXPECT_NEAR(tree, 3.0, 0.01);    // log2(8) rounds
}

// An empty message has no buffer: as_doubles must return an empty vector
// without handing memcpy a null source.
TEST(MiniMpi, EmptyDoublesMessageDecodesEmpty) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 1) {
      comm.send_doubles(0, 11, nullptr, 0);
    } else {
      EXPECT_TRUE(comm.recv(1, 11).as_doubles().empty());
    }
  });
}

TEST(MatrixChannel, RoundTripsStridedViews) {
  net::World world(2, fast_net());
  Matrix src = rcs::linalg::random_matrix(8, 8, 5);
  // A shape-only view (a cost-only run's block) travels as its header but
  // is charged as the whole matrix, and decodes back to a shape-only view.
  const rcs::Span2D<const double> shape(nullptr, 8, 8);
  world.run([&](net::Comm& comm) {
    if (comm.rank() == 0) {
      net::send_matrix(comm, 1, 4, src.block(2, 3, 4, 5));
      net::send_matrix(comm, 1, 5, shape.block(2, 3, 4, 5));
    } else {
      const net::PackedMatrix got = net::recv_matrix(comm, 0, 4);
      ASSERT_EQ(got.rows(), 4u);
      ASSERT_EQ(got.cols(), 5u);
      EXPECT_TRUE(rcs::linalg::bit_equal(got.view(), src.block(2, 3, 4, 5)));
      const net::PackedMatrix none = net::recv_matrix(comm, 0, 5);
      EXPECT_EQ(none.rows(), 4u);
      EXPECT_EQ(none.cols(), 5u);
      EXPECT_EQ(none.view().data(), nullptr);
      EXPECT_EQ(none.payload().size(), net::matrix_wire_bytes(4, 5));
      EXPECT_EQ(none.payload().stored(), net::kMatrixHeaderBytes);
      // The raw readers refuse it instead of reading past the header (22
      // doubles: the 16-byte header and 4 x 5 elements).
      net::Message raw;
      raw.payload = none.payload();
      EXPECT_THROW(raw.as_doubles(), rcs::Error);
      EXPECT_THROW((raw.as<std::array<double, 22>>()), rcs::Error);
    }
  });
  EXPECT_EQ(world.comm(0).bytes_sent(), 2 * net::matrix_wire_bytes(4, 5));
}

// One payload, many destinations: fan_out and bcast_tree hand every
// receiver the root's buffer, while the byte counters and the trace still
// charge one transfer per destination. Eight ranks share two
// worker threads, so receivers drop their references on either thread.
TEST(MatrixChannel, OneBufferReachesEveryRankAndEveryTransferIsCharged) {
  constexpr int kP = 8;
  const int saved = rcs::common::ThreadPool::global().threads();
  rcs::common::ThreadPool::set_global_threads(2);
  const Matrix block = rcs::linalg::random_matrix(16, 16, 9);
  const net::Payload packed = net::pack_matrix(block.view());
  const std::uint64_t wire = net::matrix_wire_bytes(16, 16);
  for (const std::string how : {"fan_out", "bcast_tree"}) {
    SCOPED_TRACE(how);
    net::World world(kP, fast_net());
    std::vector<sim::TraceRecorder> traces(kP, sim::TraceRecorder(true));
    world.run([&](net::Comm& comm) {
      const int r = comm.rank();
      comm.set_trace(&traces[static_cast<std::size_t>(r)]);
      const net::Payload mine = r == 0 ? packed : net::Payload();
      net::Payload got;
      if (how == "bcast_tree") {
        got = comm.bcast_tree(0, 5, mine);
      } else if (r == 0) {
        rcs::core::fan_out(comm, /*dma=*/false, {{5, mine}});
        got = mine;
      } else {
        got = comm.recv(0, 5).payload;
      }
      EXPECT_EQ(got.data(), packed.data()) << "rank " << r;
      EXPECT_TRUE(rcs::linalg::bit_equal(net::PackedMatrix(got).view(),
                                         block.view()));
    });

    std::uint64_t bytes = 0;
    for (int r = 0; r < kP; ++r) bytes += world.comm(r).bytes_sent();
    EXPECT_EQ(bytes, (kP - 1) * wire);
    if (how == "fan_out") {
      EXPECT_EQ(world.comm(0).bytes_sent(), (kP - 1) * wire);
    }
    int sends = 0;
    std::set<int> dsts;
    for (const sim::TraceRecorder& tr : traces) {
      for (const sim::CommEvent& ev : tr.comm_events()) {
        if (ev.kind != sim::CommEvent::Kind::Send) continue;
        ++sends;
        EXPECT_EQ(ev.bytes, wire);
        EXPECT_LT(ev.depart, ev.arrival);
        dsts.insert(ev.peer);
      }
    }
    EXPECT_EQ(sends, kP - 1);
    EXPECT_EQ(dsts.size(), static_cast<std::size_t>(kP - 1));
  }
  rcs::common::ThreadPool::set_global_threads(saved);
}

TEST(MatrixChannel, WireBytesFormula) {
  EXPECT_EQ(net::matrix_wire_bytes(3, 4), 16u + 96u);
}

TEST(NetworkParams, TransferTime) {
  net::NetworkParams np;
  np.bytes_per_s = 2e9;
  np.latency_s = 1e-6;
  EXPECT_DOUBLE_EQ(np.transfer_time(2'000'000'000ull), 1.0 + 1e-6);
}

// --- Receives and their traced overlap -------------------------------------

TEST(MiniMpiRecv, DeliversAndAdvancesClock) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB/s
  np.latency_s = 0.0;
  net::World world(2, np);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(125'000, 1.0);  // 1 MB -> 1 s on the wire
      comm.send_doubles(1, 3, big.data(), big.size());
    } else {
      const net::Message m = comm.recv(0, 3);
      EXPECT_EQ(m.payload.size(), 1'000'000u);
      EXPECT_NEAR(m.depart, 0.0, 1e-9);
      EXPECT_NEAR(m.arrival, 1.0, 1e-9);
      // The receive advanced the receiver's clock to the arrival.
      EXPECT_NEAR(comm.clock().now(), 1.0, 1e-9);
    }
  });
}

// Comm -> trace -> analyzer: each receive's wire time lands in the phase
// named at the receive, split into the part that elapsed behind the
// receiver's own compute (hidden) and the part it stalled on (visible).
TEST(MiniMpiRecv, TracedReceivesSplitWireIntoHiddenAndVisible) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;
  np.latency_s = 0.0;
  net::World world(2, np);
  std::vector<sim::TraceRecorder> traces;
  traces.emplace_back(true);
  traces.emplace_back(true);
  world.run([&traces](net::Comm& comm) {
    comm.set_trace(&traces[static_cast<std::size_t>(comm.rank())]);
    const std::vector<double> big(125'000, 1.0);  // 1 MB -> 1 s on the wire
    if (comm.rank() == 0) {
      comm.send_doubles(1, 3, big.data(), big.size());  // wire [0, 1]
      comm.send_doubles(1, 4, big.data(), big.size());  // wire [1, 2]
    } else {
      // Receiving at once exposes the whole first transfer.
      comm.recv(0, 3, "eager");
      EXPECT_NEAR(comm.clock().now(), 1.0, 1e-9);
      // Computing past the second arrival hides all of it.
      comm.clock().advance(2.0);
      comm.recv(0, 4, "late");
      EXPECT_NEAR(comm.clock().now(), 3.0, 1e-9);
    }
  });
  sim::TraceRecorder merged(true);
  merged.merge_from(traces);
  const rcs::obs::cp::Analysis an =
      rcs::core::analyze_run(merged, 2, world.makespan());
  auto phase = [&an](const std::string& label) {
    const auto it = std::find_if(
        an.per_phase.begin(), an.per_phase.end(),
        [&](const rcs::obs::cp::PhaseAttribution& pa) {
          return pa.label == label;
        });
    EXPECT_NE(it, an.per_phase.end()) << label;
    return it == an.per_phase.end() ? rcs::obs::cp::PhaseAttribution{} : *it;
  };
  const auto eager = phase("eager");
  EXPECT_NEAR(eager.transfer_wire_s, 1.0, 1e-9);
  EXPECT_NEAR(eager.transfer_hidden_s, 0.0, 1e-9);
  EXPECT_NEAR(eager.transfer_visible_s, 1.0, 1e-9);
  const auto late = phase("late");
  EXPECT_NEAR(late.transfer_wire_s, 1.0, 1e-9);
  EXPECT_NEAR(late.transfer_hidden_s, 1.0, 1e-9);
  EXPECT_NEAR(late.transfer_visible_s, 0.0, 1e-9);
  EXPECT_NEAR(an.per_rank[1].transfer_hidden_s, 1.0, 1e-9);
}

// The lookahead schedules mix isend (NIC timeline) and send (CPU timeline)
// toward the same destination. Matching is FIFO by delivery order, so an
// isend posted first is received first even if a later CPU send's payload
// "arrives" earlier on its own timeline — and the receiver's clock never
// moves backwards across the two receives.
TEST(MiniMpi, MixedIsendSendSameTagKeepsDeliveryOrder) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;
  np.latency_s = 0.0;
  net::World world(2, np);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.isend(1, 5, zeros(1'000'000));  // NIC: depart 0, arrival 1.0
      comm.send(1, 5, zeros(1'000));       // CPU: depart 0, arrival 1e-3
      EXPECT_NEAR(comm.clock().now(), 1e-3, 1e-9);  // CPU paid only the send
      EXPECT_NEAR(comm.nic_free_at(), 1.0, 1e-9);
    } else {
      net::Message first = comm.recv(0, 5);
      net::Message second = comm.recv(0, 5);
      EXPECT_EQ(first.payload.size(), 1'000'000u);
      EXPECT_NEAR(first.arrival, 1.0, 1e-9);
      EXPECT_EQ(second.payload.size(), 1'000u);
      EXPECT_NEAR(second.arrival, 1e-3, 1e-9);
      // Clock gated on the slow NIC transfer, then held (never backwards).
      EXPECT_NEAR(comm.clock().now(), 1.0, 1e-9);
    }
  });
}

TEST(MiniMpi, TreeBcastStaggersArrivalsNonPowerOfTwo) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB payload -> 1 s per hop
  np.latency_s = 0.0;
  const std::size_t bytes = 1'000'000;
  // Binomial tree, root 0, p = 6: rank 4 hears at 1.0 and relays to 5
  // (arrival 2.0); rank 2 hears at 2.0 and relays to 3 (3.0); rank 1 hears
  // last at 3.0. Final clocks include each rank's own forwarding sends.
  std::vector<double> finish(6, -1.0);
  net::World world(6, np);
  world.run([&](net::Comm& comm) {
    net::Payload payload;
    if (comm.rank() == 0) payload = zeros(bytes);
    payload = comm.bcast_tree(0, 1, std::move(payload));
    EXPECT_EQ(payload.size(), bytes);
    finish[static_cast<std::size_t>(comm.rank())] = comm.clock().now();
  });
  const double expected[6] = {3.0, 3.0, 3.0, 3.0, 2.0, 2.0};
  for (int r = 0; r < 6; ++r) {
    EXPECT_NEAR(finish[static_cast<std::size_t>(r)], expected[r], 1e-9)
        << "rank " << r;
  }
  EXPECT_NEAR(world.makespan(), 3.0, 1e-9);  // ceil(log2 6) rounds

  // p = 3: root serializes children 2 then 1; rank 2 has no one to relay to.
  std::vector<double> finish3(3, -1.0);
  net::World world3(3, np);
  world3.run([&](net::Comm& comm) {
    net::Payload payload;
    if (comm.rank() == 0) payload = zeros(bytes);
    payload = comm.bcast_tree(0, 1, std::move(payload));
    finish3[static_cast<std::size_t>(comm.rank())] = comm.clock().now();
  });
  EXPECT_NEAR(finish3[0], 2.0, 1e-9);
  EXPECT_NEAR(finish3[1], 2.0, 1e-9);
  EXPECT_NEAR(finish3[2], 1.0, 1e-9);
}

// --- Failure propagation and world reuse ----------------------------------

// Regression: a throwing rank used to leave peers blocked in take() forever
// (World::run joined all threads before rethrowing). The failure must poison
// every mailbox so blocked receives abort and the original error surfaces.
TEST(MiniMpi, ThrowingRankDoesNotHangBlockedPeers) {
  net::World world(3, fast_net());
  try {
    world.run([](net::Comm& comm) {
      if (comm.rank() == 0) throw rcs::Error("boom");
      comm.recv(0, 1);  // never satisfied: only the poison can wake this
    });
    FAIL() << "expected World::run to throw";
  } catch (const rcs::Error& e) {
    // The original failure wins over the induced WorldAborted ones.
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(MiniMpi, ThrowingRankWakesBarrier) {
  net::World world(4, fast_net());
  EXPECT_THROW(world.run([](net::Comm& comm) {
    if (comm.rank() == 2) throw rcs::Error("rank 2 died");
    comm.barrier();
  }),
               rcs::Error);
}

TEST(MiniMpi, RunTwiceStartsFromCleanState) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 5, 111);
      comm.send_value(1, 5, 333);  // left undelivered in rank 1's mailbox
      comm.clock().advance(10.0);
    } else {
      EXPECT_EQ(comm.recv(0, 5).as<int>(), 111);
    }
  });
  EXPECT_GE(world.makespan(), 10.0);

  // Second run: clocks, byte counters, and mailboxes must start fresh — the
  // stale 333 from run one must not satisfy run two's receive.
  world.run([](net::Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.clock().now(), 0.0);
    EXPECT_EQ(comm.bytes_sent(), 0u);
    if (comm.rank() == 0) {
      comm.send_value(1, 5, 222);
    } else {
      EXPECT_EQ(comm.recv(0, 5).as<int>(), 222);
    }
    comm.clock().advance(1.0);
  });
  EXPECT_NEAR(world.makespan(), 1.0, 1e-6);
}

TEST(MiniMpi, RunAfterFailureRecovers) {
  net::World world(2, fast_net());
  EXPECT_THROW(world.run([](net::Comm& comm) {
    if (comm.rank() == 0) throw rcs::Error("first run dies");
    comm.recv(0, 1);
  }),
               rcs::Error);
  // The poison from the failed run must not leak into the next one.
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 7);
    } else {
      EXPECT_EQ(comm.recv(0, 1).as<int>(), 7);
    }
  });
}

// --- Argument validation ---------------------------------------------------

// Point-to-point operations must reject out-of-range ranks, self-messaging,
// and reserved (negative) user tags with a descriptive Error instead of
// indexing mailboxes out of bounds.
TEST(MiniMpi, ValidatesRanksAndTags) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() != 0) return;
    const double v = 1.0;
    EXPECT_THROW(comm.send_doubles(2, 1, &v, 1), rcs::Error);   // dst too big
    EXPECT_THROW(comm.send_doubles(-1, 1, &v, 1), rcs::Error);  // dst negative
    EXPECT_THROW(comm.send_doubles(0, 1, &v, 1), rcs::Error);   // self-send
    EXPECT_THROW(comm.send_doubles(1, -5, &v, 1), rcs::Error);  // reserved tag
    EXPECT_THROW(comm.isend(1, -1, net::Payload::copy_of(&v, 8)), rcs::Error);
    EXPECT_THROW(comm.recv(7, 1), rcs::Error);
    EXPECT_THROW(comm.recv(0, 1), rcs::Error);  // self-receive
    EXPECT_THROW(comm.recv(1, -2), rcs::Error);
    bool timed_out = false;
    EXPECT_THROW(comm.recv_deadline(3, 1, 1.0, &timed_out), rcs::Error);
    // None of the rejected calls may have charged the clock or sent bytes.
    EXPECT_DOUBLE_EQ(comm.clock().now(), 0.0);
    EXPECT_EQ(comm.bytes_sent(), 0u);
  });
}

// --- Deadline receives -----------------------------------------------------

TEST(MiniMpiDeadline, InTimeMessageBehavesLikeRecv) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 3, 5);
      return;
    }
    bool timed_out = true;
    const net::Message m = comm.recv_deadline(0, 3, 2.0, &timed_out);
    EXPECT_FALSE(timed_out);
    EXPECT_EQ(m.as<int>(), 5);
    EXPECT_EQ(comm.fault_stats().straggler_timeouts, 0u);
  });
}

// A late arrival: the receiver's clock stops exactly at the deadline (not at
// the straggler's arrival) and the drained late payload is still returned so
// the caller can use it for diagnostics.
TEST(MiniMpiDeadline, TimeoutStopsClockAtDeadline) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.clock().advance(5.0);  // busy: the send departs late
      comm.send_value(1, 3, 77);
      return;
    }
    bool timed_out = false;
    const net::Message m = comm.recv_deadline(0, 3, 1.0, &timed_out);
    EXPECT_TRUE(timed_out);
    EXPECT_DOUBLE_EQ(comm.clock().now(), 1.0);
    EXPECT_EQ(m.as<int>(), 77);  // late message is drained, not re-queued
    EXPECT_EQ(comm.fault_stats().straggler_timeouts, 1u);
  });
}

// --- Fault plans: link degradation ------------------------------------------

// Link degradation is deterministic and exactly reflects the plan: halving
// the bandwidth doubles the (latency-free) transfer time, and replaying the
// same plan reproduces the same makespan bit-for-bit.
TEST(MiniMpiFaults, LinkFaultDegradesDeterministically) {
  sim::LinkFault lf;
  lf.src = 0;
  lf.dst = 1;
  lf.begin = 0.0;
  lf.end = 100.0;
  lf.bw_factor = 0.5;
  sim::FaultPlan plan(7);
  plan.add_link_fault(lf);

  const auto makespan = [](const sim::FaultPlan* p) {
    net::World world(2, fast_net());
    world.set_fault_plan(p);
    std::uint64_t link_hits = 0;
    world.run([&](net::Comm& comm) {
      if (comm.rank() == 0) {
        std::vector<double> big(1'000'000 / 8, 1.0);  // 1 MB -> 1 ms nominal
        comm.send_doubles(1, 2, big.data(), big.size());
        link_hits = comm.fault_stats().link_hits;
      } else {
        comm.recv(0, 2);
      }
    });
    EXPECT_EQ(link_hits, p != nullptr ? 1u : 0u);
    return world.makespan();
  };

  const double clean = makespan(nullptr);
  const double faulty = makespan(&plan);
  EXPECT_DOUBLE_EQ(faulty, makespan(&plan));  // byte-identical replay
  EXPECT_DOUBLE_EQ(faulty, 2.0 * clean);      // bw_factor 0.5, no jitter
}

// Zero-cost default: an installed-but-empty plan (and no plan at all) leave
// the timing of a run bit-identical.
TEST(MiniMpiFaults, EmptyPlanIsZeroCost) {
  const auto makespan = [](const sim::FaultPlan* p) {
    net::World world(2, fast_net());
    world.set_fault_plan(p);
    world.run([](net::Comm& comm) {
      if (comm.rank() == 0) {
        std::vector<double> big(1'000'000 / 8, 1.0);
        comm.send_doubles(1, 2, big.data(), big.size());
      } else {
        comm.recv(0, 2);
        comm.clock().advance(0.25);
      }
    });
    return world.makespan();
  };
  sim::FaultPlan empty(3);
  EXPECT_DOUBLE_EQ(makespan(nullptr), makespan(&empty));
}

// --- The poison path under stress -----------------------------------------

// Regression for the poison wakeup: rank 1 tells rank 0 it is ready and
// blocks in a receive from rank 0, which takes the token and throws. Every
// iteration exercises the window between rank 1's last check and its park,
// where a lost wake would hang it until the suite TIMEOUT. Hammered with
// both ranks on one worker loop and with each rank free to run on its own.
TEST(MiniMpiFaults, ThrowDuringBlockedRecvStress) {
  for (const int workers : {1, 2}) {
    for (int iter = 0; iter < 120; ++iter) {
      SCOPED_TRACE(testing::Message()
                   << "workers " << workers << ", iter " << iter);
      net::World world(2, fast_net());
      world.set_max_workers(workers);
      expect_rank_error(
          world,
          [](net::Comm& comm) {
            if (comm.rank() == 0) {
              (void)comm.recv(1, 1);
              throw rcs::Error("rank 0 died");
            }
            comm.send_value(0, 1, 7);
            (void)comm.recv(0, 2);  // only the poison can wake this
          },
          "rank 0 died");
    }
  }
}

// The poison fails only the receives that would block. Ranks 2-7 each send
// rank 0 a message and then rank 1 a token, and rank 1 throws once it holds
// every token. Rank 0's receive from rank 1 throws WorldAborted, and the
// messages ranks 2-7 delivered before the poison are still returned. Run on
// one worker loop and on two.
TEST(MiniMpiFaults, DeliveredMessagesSurviveThePoison) {
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "workers " << workers);
    net::World world(8, fast_net());
    world.set_max_workers(workers);
    int received = 0;  // written by rank 0 only
    expect_rank_error(
        world,
        [&received](net::Comm& comm) {
          const int r = comm.rank();
          if (r == 1) {
            for (int src = 2; src < comm.size(); ++src) {
              (void)comm.recv(src, 5);
            }
            throw rcs::Error("rank 1 died");
          }
          if (r != 0) {
            comm.send_value(0, 4, 100 + r);
            comm.send_value(1, 5, r);
            return;
          }
          EXPECT_THROW((void)comm.recv(1, 4), net::WorldAborted);
          for (int src = 2; src < comm.size(); ++src) {
            EXPECT_EQ(comm.recv(src, 4).as<int>(), 100 + src);
            ++received;
          }
        },
        "rank 1 died");
    EXPECT_EQ(received, 6);
  }
}

// p=256 smoke for the fiber rank scheduler: ring send/recv, barrier, and
// bcast_tree all complete in one process, then in a second run on the same
// world one rank throws and every survivor blocked on it wakes. The suite
// TIMEOUT is the hang guard.
TEST(MiniMpiScale, P256RingBarrierBcastTree) {
  constexpr int kP = 256;
  net::World world(kP, fast_net());

  world.run([](net::Comm& comm) {
    const int p = comm.size();
    const int r = comm.rank();
    // Ring: pass each rank's id one hop clockwise (send is non-blocking).
    comm.send_value((r + 1) % p, 1, r);
    EXPECT_EQ(comm.recv((r + p - 1) % p, 1).as<int>(), (r + p - 1) % p);
    comm.barrier();
    // Binomial-tree broadcast from a non-zero root.
    net::Payload payload;
    if (r == 3) {
      const std::byte bytes[2] = {std::byte{0xAB}, std::byte{0xCD}};
      payload = net::Payload::copy_of(bytes, sizeof(bytes));
    }
    const net::Payload got = comm.bcast_tree(3, 2, std::move(payload));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got.data()[0], std::byte{0xAB});
    EXPECT_EQ(got.data()[1], std::byte{0xCD});
  });

  // Same world, rank 17 throws: all 255 survivors blocked on it must wake
  // with WorldAborted (not hang), and run() rethrows rank 17's error.
  std::atomic<int> woken{0};
  expect_rank_error(
      world,
      [&woken](net::Comm& comm) {
        if (comm.rank() == 17) throw rcs::Error("rank 17 died");
        EXPECT_THROW((void)comm.recv(17, 3), net::WorldAborted);
        ++woken;
      },
      "rank 17 died");
  EXPECT_EQ(woken.load(), kP - 1);
}

// Fan-in at p=256: every rank sends rank 0 a tag-9 message between two
// tag-5 ones, and rank 0 receives out of arrival order: tag 9 from the
// highest rank down, then both tag-5 messages of every rank. Each receive
// must match by source and tag, first in first out per (src, tag).
TEST(MiniMpiScale, FanInMatchesBySourceAndTag) {
  constexpr int kP = 256;
  net::World world(kP, fast_net());
  world.set_max_workers(2);
  world.run([](net::Comm& comm) {
    const int r = comm.rank();
    if (r != 0) {
      comm.send_value(0, 5, r);
      comm.send_value(0, 9, 1000 + r);
      comm.send_value(0, 5, 2000 + r);
      return;
    }
    for (int src = kP - 1; src >= 1; --src) {
      EXPECT_EQ(comm.recv(src, 9).as<int>(), 1000 + src);
    }
    for (int src = 1; src < kP; ++src) {
      EXPECT_EQ(comm.recv(src, 5).as<int>(), src);
      EXPECT_EQ(comm.recv(src, 5).as<int>(), 2000 + src);
    }
  });
}

// A world never runs on more OS threads than the pool has: 8 ranks on a
// 2-thread pool share the caller and the pool's one worker, however often
// their fibers park and migrate.
TEST(MiniMpiScale, RanksRunOnAtMostThePoolsThreads) {
  const int saved = rcs::common::ThreadPool::global().threads();
  rcs::common::ThreadPool::set_global_threads(2);
  std::mutex mu;
  std::set<std::thread::id> seen;
  const auto note_thread = [&] {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  };
  net::World world(8, fast_net());
  world.run([&](net::Comm& comm) {
    const int p = comm.size();
    const int r = comm.rank();
    for (int round = 0; round < 4; ++round) {
      note_thread();
      comm.send_value((r + 1) % p, round, r);
      EXPECT_EQ(comm.recv((r + p - 1) % p, round).as<int>(), (r + p - 1) % p);
    }
    comm.barrier();
    note_thread();
  });
  rcs::common::ThreadPool::set_global_threads(saved);
  EXPECT_LE(seen.size(), 2u);
}

// Per-rank send totals land in two histograms, one sample per rank per run,
// so the metrics registry does not grow with the world size.
TEST(MiniMpiScale, PerRankTotalsAreHistogramSamples) {
  constexpr int kP = 64;
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& msgs = reg.histogram("net.rank_msgs_sent");
  obs::Histogram& bytes = reg.histogram("net.rank_bytes_sent");
  const std::uint64_t msgs_before = msgs.count();
  const std::uint64_t bytes_before = bytes.count();
  const double msgs_sum_before = msgs.sum();

  net::World world(kP, fast_net());
  world.run([](net::Comm& comm) {
    const int p = comm.size();
    const int r = comm.rank();
    comm.send_value((r + 1) % p, 1, r);
    (void)comm.recv((r + p - 1) % p, 1);
  });
  obs::set_metrics_enabled(was_enabled);

  EXPECT_EQ(msgs.count() - msgs_before, static_cast<std::uint64_t>(kP));
  EXPECT_EQ(bytes.count() - bytes_before, static_cast<std::uint64_t>(kP));
  EXPECT_EQ(msgs.sum() - msgs_sum_before, static_cast<double>(kP));
  const std::regex per_rank_key(R"(net\.rank\d+\..*)");
  for (const auto& entry : reg.snapshot()) {
    EXPECT_FALSE(std::regex_match(entry.first, per_rank_key)) << entry.first;
  }
}

}  // namespace
