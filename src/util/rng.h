// Deterministic pseudo-random number generation utilities.
//
// Every stochastic component in the library (sparsifiers, generators, metric
// samplers, GNN initialization) takes an explicit Rng so that experiments are
// reproducible from a single seed and independent runs can be forked from a
// parent stream without correlation.
#ifndef SPARSIFY_UTIL_RNG_H_
#define SPARSIFY_UTIL_RNG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace sparsify {

/// MT19937-64 (T. Nishimura, ACM TOMACS 10(4), 2000) with the seeding,
/// recurrence and tempering of std::mt19937_64, so a given seed yields the
/// same output stream. It exists for speed: libstdc++ writes the twist as
/// `(y & 1) ? a : 0`, which needs a 64-bit compare that the x86-64 baseline
/// ISA lacks, so its twist loop does not vectorize. Here the twist is
/// branch-free and vectorizes at -O3 without -march. Tempering happens per
/// output, so the object is the same size as std::mt19937_64. On a 4-core
/// x86-64 host a draw costs 3.3-4.7 ns against 7.5-12 ns for
/// std::mt19937_64, and NextDouble 5-7 ns against 15-21 ns for
/// std::uniform_real_distribution<double> on std::mt19937_64.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ >= kN) Twist();
    uint64_t y = state_[next_++];
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71d67fffeda60000ULL;
    y ^= (y << 37) & 0xfff7eee000000000ULL;
    return y ^ (y >> 43);
  }

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;

  // Regenerates all kN state words; next_ = 0.
  void Twist();

  uint64_t state_[kN];
  size_t next_;
};

/// The double in [0, 1) that libstdc++'s std::uniform_real_distribution
/// <double>(0, 1) (generate_canonical<double, 53>) makes of the 64-bit draw
/// `x`: x correctly rounded to double, times 2^-64, with a result of 1
/// replaced by the largest double below 1. The two halves convert exactly
/// and their sum is rounded once, so the conversion needs no branch on the
/// top bit of x, and a contracted multiply-add rounds the same exact sum.
inline double ToUnitDouble(uint64_t x) {
  const double rounded = static_cast<double>(x >> 32) * 0x1p32 +
                         static_cast<double>(static_cast<uint32_t>(x));
  return std::min(rounded * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// Deterministic random number generator used across the library.
///
/// Wraps a SplitMix64-seeded MT19937-64 engine with convenience samplers.
/// The engine replicates std::mt19937_64's output stream and NextDouble
/// replicates libstdc++'s uniform_real_distribution bits, so every draw is
/// what the same calls on a std::mt19937_64 seeded with Mix(seed) give;
/// NextUint, NextInt, NextGaussian and NextGeometric use the std::
/// distributions themselves. Copyable; `Fork()` derives an independent
/// child stream, which is what sweep harnesses use to give each
/// (sparsifier, prune-rate, run) cell its own reproducible stream.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) : engine_(Mix(seed)) {}

  static constexpr result_type min() { return Mt19937_64::min(); }
  static constexpr result_type max() { return Mt19937_64::max(); }
  result_type operator()() { return engine_(); }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextUint(uint64_t bound) {
    return std::uniform_int_distribution<uint64_t>(0, bound - 1)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return ToUnitDouble(engine_()); }

  /// Standard normal sample.
  double NextGaussian() {
    return std::normal_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Bernoulli trial with success probability `p`.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Geometric sample: number of failures before first success, parameter p.
  uint64_t NextGeometric(double p) {
    return std::geometric_distribution<uint64_t>(p)(engine_);
  }

  /// Derives an independent child stream. Consumes one draw from this stream.
  Rng Fork() { return Rng(engine_()); }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = NextUint(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) without replacement.
  /// Uses Floyd's algorithm; O(k) expected time, order unspecified.
  std::vector<uint64_t> SampleWithoutReplacement(uint64_t n, uint64_t k);

  /// SplitMix64 finalizer: the engine seed for Rng(seed).
  static uint64_t Mix(uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  Mt19937_64 engine_;
};

}  // namespace sparsify

#endif  // SPARSIFY_UTIL_RNG_H_
