// Tests for the linear-algebra substrate: vector kernels, Laplacian
// operators, and the CG Laplacian solver.
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/linalg/cg.h"
#include "src/linalg/laplacian.h"
#include "src/linalg/vector_ops.h"
#include "src/util/rng.h"

namespace sparsify {
namespace {

TEST(VectorOpsTest, DotAndNorm) {
  Vec a = {1.0, 2.0, 3.0};
  Vec b = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(Norm2({3.0, 4.0}), 5.0);
}

TEST(VectorOpsTest, AxpyScale) {
  Vec y = {1.0, 1.0};
  Axpy(2.0, {1.0, 2.0}, &y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  Scale(0.5, &y);
  EXPECT_DOUBLE_EQ(y[0], 1.5);
}

TEST(VectorOpsTest, RemoveMean) {
  Vec x = {1.0, 2.0, 3.0};
  RemoveMean(&x);
  EXPECT_NEAR(Sum(x), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(x[0], -1.0);
}

TEST(LaplacianTest, MultiplyPathGraph) {
  // Path 0-1-2: L = [[1,-1,0],[-1,2,-1],[0,-1,1]].
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}}, false, false);
  Vec x = {1.0, 0.0, -1.0};
  Vec y;
  LaplacianMultiply(g, x, &y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
}

TEST(LaplacianTest, QuadraticFormNonNegative) {
  Rng rng(3);
  Graph g = ErdosRenyi(60, 150, false, rng);
  for (int i = 0; i < 20; ++i) {
    Vec x(g.NumVertices());
    for (double& xi : x) xi = rng.NextGaussian();
    EXPECT_GE(QuadraticForm(g, x), 0.0);
  }
}

TEST(LaplacianTest, QuadraticFormMatchesMultiply) {
  Rng rng(4);
  Graph g = BarabasiAlbert(80, 3, rng);
  Vec x(g.NumVertices());
  for (double& xi : x) xi = rng.NextGaussian();
  Vec lx;
  LaplacianMultiply(g, x, &lx);
  EXPECT_NEAR(QuadraticForm(g, x), Dot(x, lx), 1e-9);
}

TEST(LaplacianTest, ConstantVectorInKernel) {
  Rng rng(5);
  Graph g = ErdosRenyi(40, 100, false, rng);
  Vec ones(g.NumVertices(), 1.0);
  Vec y;
  LaplacianMultiply(g, ones, &y);
  for (double yi : y) EXPECT_NEAR(yi, 0.0, 1e-12);
}

TEST(LaplacianTest, WeightedDegrees) {
  Graph g = Graph::FromEdges(3, {{0, 1, 2.0}, {1, 2, 3.0}}, false, true);
  Vec deg = WeightedDegrees(g);
  EXPECT_DOUBLE_EQ(deg[0], 2.0);
  EXPECT_DOUBLE_EQ(deg[1], 5.0);
  EXPECT_DOUBLE_EQ(deg[2], 3.0);
}

TEST(CgTest, SolvesPathSystem) {
  // L x = b with b orthogonal to ones has solution unique up to constants.
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}}, false, false);
  Vec b = {1.0, 0.0, -1.0};
  Vec x(3, 0.0);
  CgResult res = SolveLaplacian(g, b, &x, 1e-10);
  EXPECT_TRUE(res.converged);
  Vec lx;
  LaplacianMultiply(g, x, &lx);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(lx[i], b[i], 1e-8);
}

TEST(CgTest, SolvesRandomConnectedGraph) {
  Rng rng(6);
  Graph g = BarabasiAlbert(200, 3, rng);
  Vec b(g.NumVertices());
  for (double& bi : b) bi = rng.NextGaussian();
  RemoveMean(&b);  // consistent RHS
  Vec x(g.NumVertices(), 0.0);
  CgResult res = SolveLaplacian(g, b, &x, 1e-9);
  EXPECT_TRUE(res.converged);
  Vec lx;
  LaplacianMultiply(g, x, &lx);
  double err = 0.0;
  for (size_t i = 0; i < b.size(); ++i) err += (lx[i] - b[i]) * (lx[i] - b[i]);
  EXPECT_LT(std::sqrt(err), 1e-6 * Norm2(b) + 1e-8);
}

TEST(CgTest, DisconnectedComponentsPerComponentRhs) {
  // Two disjoint edges; RHS mean-zero per component.
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}}, false, false);
  Vec b = {1.0, -1.0, 2.0, -2.0};
  Vec x(4, 0.0);
  CgResult res = SolveLaplacian(g, b, &x, 1e-10);
  EXPECT_TRUE(res.converged);
  Vec lx;
  LaplacianMultiply(g, x, &lx);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(lx[i], b[i], 1e-8);
}

TEST(CgTest, ZeroRhsGivesZero) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}}, false, false);
  Vec b(3, 0.0);
  Vec x = {5.0, 5.0, 5.0};
  CgResult res = SolveLaplacian(g, b, &x);
  EXPECT_TRUE(res.converged);
  for (double xi : x) EXPECT_DOUBLE_EQ(xi, 0.0);
}

TEST(CgTest, WeightedLaplacian) {
  Graph g = Graph::FromEdges(3, {{0, 1, 4.0}, {1, 2, 0.25}}, false, true);
  Vec b = {1.0, 0.0, -1.0};
  Vec x(3, 0.0);
  CgResult res = SolveLaplacian(g, b, &x, 1e-12);
  EXPECT_TRUE(res.converged);
  Vec lx;
  LaplacianMultiply(g, x, &lx);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(lx[i], b[i], 1e-8);
}

// Every column of a block solve must equal its one-column solve bit for
// bit. The graph is a K6, a 400-vertex path and a random blob, plus an
// isolated vertex: a dipole in the K6 converges in a couple of iterations,
// one in the blob in a few dozen, the path's end-to-end dipole is cut off
// by max_iters (after two deflations), and one column is zero.
TEST(CgTest, BlockColumnsMatchSingleColumnSolves) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) edges.push_back({u, v, 1.0 + u + v});
  }
  const NodeId path0 = 6, path_len = 400;
  for (NodeId i = 0; i + 1 < path_len; ++i) {
    edges.push_back({path0 + i, path0 + i + 1, 1.0});
  }
  const NodeId blob0 = path0 + path_len;
  Rng rng(31);
  Graph blob = WithRandomWeights(ErdosRenyi(60, 240, false, rng), 5.0, rng);
  for (const Edge& e : blob.Edges()) {
    edges.push_back({blob0 + e.u, blob0 + e.v, e.w});
  }
  const NodeId n = blob0 + 60 + 1;
  Graph g = Graph::FromEdges(n, edges, false, /*weighted=*/true);

  std::vector<Vec> cols(4, Vec(n, 0.0));
  cols[0][1] = 1.0;  // K6 dipole
  cols[0][4] = -1.0;
  cols[1][path0] = 1.0;  // path ends
  cols[1][path0 + path_len - 1] = -1.0;
  // cols[2] stays zero.
  for (NodeId v = blob0; v < blob0 + 60; ++v) cols[3][v] = rng.NextGaussian();
  double mean = 0.0;
  for (NodeId v = blob0; v < blob0 + 60; ++v) mean += cols[3][v] / 60.0;
  for (NodeId v = blob0; v < blob0 + 60; ++v) cols[3][v] -= mean;

  const double tol = 1e-10;
  const int max_iters = 150;
  for (int width = 2; width <= kCgBlockWidth; ++width) {
    SCOPED_TRACE(width);
    Vec b(size_t{n} * width), x(size_t{n} * width, 0.0);
    for (NodeId v = 0; v < n; ++v) {
      for (int c = 0; c < width; ++c) b[size_t{v} * width + c] = cols[c][v];
    }
    std::vector<CgResult> block(width);
    LaplacianSolver solver(g);
    solver.Solve(b, x, block, tol, max_iters);
    for (int c = 0; c < width; ++c) {
      SCOPED_TRACE(c);
      Vec xc(n, 0.0);
      CgResult one = SolveLaplacian(g, cols[c], &xc, tol, max_iters);
      Vec got(n);
      for (NodeId v = 0; v < n; ++v) got[v] = x[size_t{v} * width + c];
      EXPECT_EQ(std::memcmp(got.data(), xc.data(), n * sizeof(double)), 0);
      EXPECT_EQ(block[c].iterations, one.iterations);
      EXPECT_EQ(std::memcmp(&block[c].residual_norm, &one.residual_norm,
                            sizeof(double)),
                0);
      EXPECT_EQ(block[c].converged, one.converged);
    }
  }

  // The cases the test means to cover really occur.
  std::vector<CgResult> single(4);
  for (int c = 0; c < 4; ++c) {
    Vec xc(n, 0.0);
    single[c] = SolveLaplacian(g, cols[c], &xc, tol, max_iters);
  }
  EXPECT_TRUE(single[0].converged);
  EXPECT_FALSE(single[1].converged);
  EXPECT_EQ(single[1].iterations, max_iters);
  EXPECT_TRUE(single[2].converged);
  EXPECT_EQ(single[2].iterations, 0);
  EXPECT_TRUE(single[3].converged);
  EXPECT_LT(single[0].iterations, single[3].iterations);
  EXPECT_LT(single[3].iterations, max_iters);
}

}  // namespace
}  // namespace sparsify
