// Tests for the Floyd–Warshall substrate: the reference algorithm, the
// blocked formulation (bit-identity with the reference), the generalized
// block kernel under every aliasing pattern, and path reconstruction.

#include <gtest/gtest.h>

#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/matrix.hpp"

namespace gr = rcs::graph;
using rcs::linalg::Matrix;

namespace {

Matrix triangle_graph() {
  // 0 ->(1) 1 ->(2) 2, plus the direct edge 0 ->(5) 2.
  Matrix d(3, 3, gr::kNoEdge);
  for (int i = 0; i < 3; ++i) d(i, i) = 0.0;
  d(0, 1) = 1.0;
  d(1, 2) = 2.0;
  d(0, 2) = 5.0;
  return d;
}

TEST(FloydWarshall, PrefersShorterTwoHopPath) {
  Matrix d = triangle_graph();
  gr::floyd_warshall(d);
  EXPECT_EQ(d(0, 2), 3.0);  // via vertex 1
  EXPECT_EQ(d(0, 1), 1.0);
  EXPECT_EQ(d(2, 0), gr::kNoEdge);  // directed: no way back
}

TEST(FloydWarshall, DiagonalStaysZero) {
  Matrix d = gr::random_digraph(16, 7);
  gr::floyd_warshall(d);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(d(i, i), 0.0);
}

TEST(FloydWarshall, TriangleInequalityHolds) {
  Matrix d = gr::random_digraph(24, 9, 0.4);
  gr::floyd_warshall(d);
  for (int i = 0; i < 24; ++i)
    for (int j = 0; j < 24; ++j)
      for (int k = 0; k < 24; ++k)
        EXPECT_LE(d(i, j), d(i, k) + d(k, j) + 1e-12);
}

TEST(FloydWarshall, UnreachableStaysInfinite) {
  Matrix d(4, 4, gr::kNoEdge);
  for (int i = 0; i < 4; ++i) d(i, i) = 0.0;
  d(0, 1) = 1.0;
  d(2, 3) = 1.0;  // two disconnected components
  gr::floyd_warshall(d);
  EXPECT_EQ(d(0, 3), gr::kNoEdge);
  EXPECT_EQ(d(2, 1), gr::kNoEdge);
  EXPECT_EQ(d(0, 1), 1.0);
}

TEST(FwBlock, Op1EqualsWholeMatrixFwForSingleBlock) {
  Matrix d = gr::random_digraph(12, 11, 0.6);
  Matrix ref = d;
  gr::floyd_warshall(ref);
  gr::fw_block(d.view(), d.view(), d.view());  // op1 on the whole matrix
  EXPECT_TRUE(rcs::linalg::bit_equal(d.view(), ref.view()));
}

TEST(FwBlock, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3), c(2, 3);
  EXPECT_THROW(gr::fw_block(c.view(), a.view(), b.view()), rcs::Error);
}

class BlockedFw : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(BlockedFw, MatchesReferenceDistances) {
  // The blocked algorithm is exactly equivalent in the (min,+) semiring,
  // but floating-point path sums associate differently across block
  // boundaries, so equality holds to rounding (~n*eps), not bitwise.
  // (Bit-equality *is* required — and tested in functional_test — between
  // implementations that share the blocked operation order.)
  const auto [n, b, seed] = GetParam();
  Matrix d = gr::random_digraph(n, seed, 0.5);
  Matrix ref = d;
  gr::floyd_warshall(ref);
  gr::blocked_floyd_warshall(d, b);
  EXPECT_LT(rcs::linalg::max_abs_diff(d.view(), ref.view()), 1e-9)
      << "n=" << n << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BlockedFw,
    ::testing::Values(std::tuple{8, 2, 1}, std::tuple{16, 4, 2},
                      std::tuple{24, 8, 3}, std::tuple{32, 8, 4},
                      std::tuple{32, 16, 5}, std::tuple{48, 12, 6},
                      std::tuple{30, 5, 7}, std::tuple{16, 16, 8}));

TEST(BlockedFw, RequiresDivisibleBlockSize) {
  Matrix d = gr::random_digraph(10, 1);
  EXPECT_THROW(gr::blocked_floyd_warshall(d, 3), rcs::Error);
}

TEST(BlockedFw, DenseGraphMatchesToo) {
  Matrix d = gr::random_digraph(40, 21, 1.0);
  Matrix ref = d;
  gr::floyd_warshall(ref);
  gr::blocked_floyd_warshall(d, 10);
  EXPECT_LT(rcs::linalg::max_abs_diff(d.view(), ref.view()), 1e-9);
}

TEST(Paths, ReconstructionFollowsDistances) {
  Matrix d = gr::random_digraph(20, 31, 0.3);
  Matrix dist = d;
  std::vector<std::size_t> next;
  gr::floyd_warshall_with_paths(dist, next);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      auto path = gr::reconstruct_path(next, 20, i, j);
      if (dist(i, j) == gr::kNoEdge) {
        if (i != j) {
          EXPECT_TRUE(path.empty());
        }
        continue;
      }
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), i);
      EXPECT_EQ(path.back(), j);
      // Edge-sum of the reconstructed path equals the computed distance.
      double sum = 0.0;
      for (std::size_t s = 0; s + 1 < path.size(); ++s)
        sum += d(path[s], path[s + 1]);
      EXPECT_NEAR(sum, dist(i, j), 1e-9);
    }
  }
}

TEST(Paths, DistancesMatchPlainFw) {
  Matrix d = gr::random_digraph(18, 33, 0.4);
  Matrix d1 = d, d2 = d;
  std::vector<std::size_t> next;
  gr::floyd_warshall(d1);
  gr::floyd_warshall_with_paths(d2, next);
  EXPECT_TRUE(rcs::linalg::bit_equal(d1.view(), d2.view()));
}

TEST(Paths, BlockedWithPathsMatchesBlockedDistances) {
  const Matrix d0 = gr::random_digraph(32, 35, 0.3);
  Matrix d1 = d0, d2 = d0;
  std::vector<std::size_t> next;
  gr::blocked_floyd_warshall(d1, 8);
  gr::blocked_floyd_warshall_with_paths(d2, 8, next);
  EXPECT_TRUE(rcs::linalg::bit_equal(d1.view(), d2.view()));
}

TEST(Paths, BlockedReconstructionRealizesItsDistances) {
  const Matrix d0 = gr::random_digraph(32, 37, 0.25);
  Matrix dist = d0;
  std::vector<std::size_t> next;
  gr::blocked_floyd_warshall_with_paths(dist, 8, next);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 32; ++j) {
      const auto path = gr::reconstruct_path(next, 32, i, j);
      if (dist(i, j) == gr::kNoEdge) {
        if (i != j) {
          EXPECT_TRUE(path.empty());
        }
        continue;
      }
      ASSERT_FALSE(path.empty()) << i << "->" << j;
      double sum = 0.0;
      for (std::size_t s = 0; s + 1 < path.size(); ++s)
        sum += d0(path[s], path[s + 1]);
      EXPECT_NEAR(sum, dist(i, j), 1e-9) << i << "->" << j;
    }
  }
}

TEST(Paths, BlockedNextHopKernelShapeChecks) {
  Matrix c(4, 4), a(4, 4), b(4, 4);
  std::vector<std::size_t> n1(16), n2(12);
  rcs::Span2D<std::size_t> nc(n1.data(), 4, 4);
  rcs::Span2D<std::size_t> bad(n2.data(), 3, 4);
  EXPECT_THROW(
      gr::fw_block_with_next(c.view(), a.view(), b.view(), bad, nc),
      rcs::Error);
}

TEST(Generators, GridRoadNetworkIsSymmetricAndConnected) {
  Matrix d = gr::grid_road_network(4, 5, 3);
  const std::size_t n = 20;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(d(i, j), d(j, i));
  gr::floyd_warshall(d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_LT(d(i, j), gr::kNoEdge);  // grid is connected
}

TEST(Generators, RandomDigraphEdgeProbabilityRoughlyHolds) {
  Matrix d = gr::random_digraph(50, 77, 0.3);
  int edges = 0;
  for (int i = 0; i < 50; ++i)
    for (int j = 0; j < 50; ++j)
      if (i != j && d(i, j) != gr::kNoEdge) ++edges;
  EXPECT_GT(edges, 500);
  EXPECT_LT(edges, 1000);
}

TEST(FlopCounts, Formulas) {
  EXPECT_EQ(gr::fw_block_flops(4), 128);
  EXPECT_EQ(gr::fw_total_flops(10), 2000);
}

}  // namespace
