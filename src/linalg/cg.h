// Jacobi-preconditioned conjugate gradient for graph Laplacian systems.
//
// The Laplacian is symmetric positive semi-definite with kernel spanned by
// the indicator vectors of connected components. We solve the consistent
// system L x = b for right-hand sides orthogonal to the kernel (every
// b = B^T W^{1/2} q produced by the Effective Resistance estimator is,
// because each edge contributes +w and -w to its two endpoints, which lie in
// the same component). Iterates are periodically deflated against the
// all-ones vector to suppress kernel drift from rounding.
//
// Block contract. One solve runs CG on up to kCgBlockWidth right-hand sides
// at once, stored interleaved: entry v of column c lives at [v * cols + c].
// Each iteration makes one pass over the edge list for the Laplacian
// multiply of every column; everything else is per column. A column keeps
// scalar CG's operation order, its own alpha and beta, its own stop (the
// tolerance, or p^T L p <= 0) and its own deflation every 64 iterations,
// and a stopped column is frozen while the others go on. So every column
// of a block solve is bit-identical to solving it alone — provided the
// compiler contracts no multiply-add into an FMA, which CMakeLists.txt
// pins for src/linalg. The single right-hand-side SolveLaplacian is the
// one-column case of the same code.
#ifndef SPARSIFY_LINALG_CG_H_
#define SPARSIFY_LINALG_CG_H_

#include <span>

#include "src/graph/graph.h"
#include "src/linalg/vector_ops.h"

namespace sparsify {

/// Most right-hand sides one LaplacianSolver::Solve call takes.
inline constexpr int kCgBlockWidth = 4;

/// Result of a CG solve (of one column).
struct CgResult {
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Block CG on one graph's Laplacian. Construction computes the Jacobi
/// preconditioner; the scratch is kept across Solve calls, so a caller
/// solving many systems on one graph pays for both once.
class LaplacianSolver {
 public:
  explicit LaplacianSolver(const Graph& g);

  /// Solves L X = B for cols = results.size() (1..kCgBlockWidth) columns,
  /// interleaved as above: b and x hold |V| * cols entries. Each column
  /// runs to relative tolerance `tol` on its residual norm with at most
  /// `max_iters` iterations, and results[c] reports column c. `x` is both
  /// the initial guess (pass zeros if unknown) and the output. A zero
  /// column of b gives a zero column of x in zero iterations.
  void Solve(std::span<const double> b, std::span<double> x,
             std::span<CgResult> results, double tol = 1e-8,
             int max_iters = 2000);

 private:
  template <int B>
  void SolveBlock(const double* b, double* x, CgResult* res, double tol,
                  int max_iters);

  const Graph& g_;
  Vec minv_;  // Jacobi preconditioner M^{-1} = 1/deg
  // Residual, search direction and L p, |V| * cols entries each, in one
  // allocation: once it passes the mmap threshold sparsify_cli pins, it
  // goes back to the OS on free instead of staying in a thread arena.
  Vec work_;
};

/// Solves L x = b (one column) to relative tolerance `tol` on the residual
/// norm with at most `max_iters` iterations. `x` is both the initial guess
/// and the output.
CgResult SolveLaplacian(const Graph& g, const Vec& b, Vec* x,
                        double tol = 1e-8, int max_iters = 2000);

}  // namespace sparsify

#endif  // SPARSIFY_LINALG_CG_H_
