#include "src/linalg/cg.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/linalg/laplacian.h"
#include "src/util/cancel.h"

namespace sparsify {
namespace {

// y = L x for B interleaved columns in one pass over the edge list. Each
// column receives exactly LaplacianMultiply's updates, in edge order (for
// a self-loop u == v the += still precedes the -=).
template <int B>
void MultiplyBlock(const Graph& g, const double* x, double* y, size_t n) {
  std::fill(y, y + n * B, 0.0);
  for (const Edge& ed : g.Edges()) {
    const double* xu = x + size_t{ed.u} * B;
    const double* xv = x + size_t{ed.v} * B;
    double wd[B] = {};
    for (int c = 0; c < B; ++c) wd[c] = ed.w * (xu[c] - xv[c]);
    double* yu = y + size_t{ed.u} * B;
    for (int c = 0; c < B; ++c) yu[c] += wd[c];
    double* yv = y + size_t{ed.v} * B;
    for (int c = 0; c < B; ++c) yv[c] -= wd[c];
  }
}

// out[c] = <a_c, b_c>, each summed in vertex order like Dot.
template <int B>
void DotBlock(const double* a, const double* b, size_t n, double* out) {
  double s[B] = {};
  for (size_t i = 0; i < n; ++i) {
    for (int c = 0; c < B; ++c) s[c] += a[i * B + c] * b[i * B + c];
  }
  std::copy(s, s + B, out);
}

// out[c] = <r_c, z_c> for the preconditioned residual z = M^{-1} r, which
// is recomputed on the fly rather than stored (the same product, so the
// same bits as a stored z).
template <int B>
void PrecondDotBlock(const double* r, const double* minv, size_t n,
                     double* out) {
  double s[B] = {};
  for (size_t i = 0; i < n; ++i) {
    for (int c = 0; c < B; ++c) s[c] += r[i * B + c] * (minv[i] * r[i * B + c]);
  }
  std::copy(s, s + B, out);
}

}  // namespace

template <int B>
void LaplacianSolver::SolveBlock(const double* b, double* x, CgResult* res,
                                 double tol, int max_iters) {
  const size_t n = minv_.size();
  double* r = work_.data();
  double* p = r + n * B;
  double* lp = p + n * B;
  bool active[B] = {};
  double bnorm[B] = {}, rz[B] = {}, dot[B] = {}, alpha[B] = {}, beta[B] = {};
  MultiplyBlock<B>(g_, x, lp, n);
  for (size_t i = 0; i < n * B; ++i) r[i] = b[i] - lp[i];
  DotBlock<B>(b, b, n, dot);
  bool any = false;
  for (int c = 0; c < B; ++c) {
    res[c] = CgResult{};
    bnorm[c] = std::sqrt(dot[c]);
    active[c] = bnorm[c] != 0.0;
    any |= active[c];
    if (!active[c]) {
      for (size_t i = 0; i < n; ++i) x[i * B + c] = 0.0;
      res[c].converged = true;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (int c = 0; c < B; ++c) p[i * B + c] = minv_[i] * r[i * B + c];
  }
  PrecondDotBlock<B>(r, minv_.data(), n, rz);
  for (int it = 0; it < max_iters && any; ++it) {
    // A solve may run up to max_iters block matvecs; poll per iteration so
    // a deadline lands within one.
    SPARSIFY_CHECK_CANCELLED();
    MultiplyBlock<B>(g_, p, lp, n);
    DotBlock<B>(p, lp, n, dot);
    for (int c = 0; c < B; ++c) {
      if (!active[c]) continue;
      res[c].iterations = it + 1;
      // p in (numerical) kernel: converged as far as the consistent part
      // goes.
      if (dot[c] <= 0.0) {
        active[c] = false;
        continue;
      }
      alpha[c] = rz[c] / dot[c];
    }
    for (size_t i = 0; i < n; ++i) {
      for (int c = 0; c < B; ++c) {
        if (!active[c]) continue;
        x[i * B + c] += alpha[c] * p[i * B + c];
        r[i * B + c] += -alpha[c] * lp[i * B + c];
      }
    }
    DotBlock<B>(r, r, n, dot);
    for (int c = 0; c < B; ++c) {
      if (!active[c]) continue;
      res[c].residual_norm = std::sqrt(dot[c]);
      if (res[c].residual_norm <= tol * bnorm[c]) {
        res[c].converged = true;
        active[c] = false;
      }
    }
    PrecondDotBlock<B>(r, minv_.data(), n, dot);
    for (int c = 0; c < B; ++c) {
      if (!active[c]) continue;
      beta[c] = dot[c] / rz[c];
      rz[c] = dot[c];
    }
    for (size_t i = 0; i < n; ++i) {
      for (int c = 0; c < B; ++c) {
        if (!active[c]) continue;
        p[i * B + c] = minv_[i] * r[i * B + c] + beta[c] * p[i * B + c];
      }
    }
    any = false;
    for (int c = 0; c < B; ++c) {
      any |= active[c];
      // Deflate kernel drift occasionally (RemoveMean on the column).
      if (!active[c] || (it & 63) != 63 || n == 0) continue;
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) sum += x[i * B + c];
      const double mean = sum / static_cast<double>(n);
      for (size_t i = 0; i < n; ++i) x[i * B + c] -= mean;
    }
  }
}

LaplacianSolver::LaplacianSolver(const Graph& g) : g_(g) {
  Vec deg = WeightedDegrees(g);
  // Jacobi preconditioner M^{-1} = 1/deg (1 for isolated vertices, whose
  // rows are zero).
  minv_.resize(deg.size());
  for (size_t i = 0; i < deg.size(); ++i) {
    minv_[i] = deg[i] > 0.0 ? 1.0 / deg[i] : 1.0;
  }
}

void LaplacianSolver::Solve(std::span<const double> b, std::span<double> x,
                            std::span<CgResult> results, double tol,
                            int max_iters) {
  const size_t n = minv_.size();
  const size_t len = n * results.size();
  assert(b.size() == len);
  assert(x.size() == len);
  // Grows once to the widest block; narrower solves reuse the prefix.
  if (work_.size() < 3 * len) work_.resize(3 * len);
  static_assert(kCgBlockWidth == 4, "dispatch below covers widths 1..4");
  switch (results.size()) {
    case 1:
      SolveBlock<1>(b.data(), x.data(), results.data(), tol, max_iters);
      break;
    case 2:
      SolveBlock<2>(b.data(), x.data(), results.data(), tol, max_iters);
      break;
    case 3:
      SolveBlock<3>(b.data(), x.data(), results.data(), tol, max_iters);
      break;
    case 4:
      SolveBlock<4>(b.data(), x.data(), results.data(), tol, max_iters);
      break;
    default:
      throw std::invalid_argument("LaplacianSolver: block width must be "
                                  "1..kCgBlockWidth");
  }
}

CgResult SolveLaplacian(const Graph& g, const Vec& b, Vec* x, double tol,
                        int max_iters) {
  assert(b.size() == g.NumVertices());
  CgResult result;
  LaplacianSolver(g).Solve(b, *x, std::span<CgResult>(&result, 1), tol,
                           max_iters);
  return result;
}

}  // namespace sparsify
