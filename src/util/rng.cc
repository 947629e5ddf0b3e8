#include "src/util/rng.h"

#include <unordered_set>

namespace sparsify {

Mt19937_64::Mt19937_64(uint64_t seed) : next_(kN) {
  state_[0] = seed;
  for (size_t i = 1; i < kN; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
  constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  constexpr uint64_t kLower = ~kUpper;
  // (0 - (y & 1)) & kMatrixA is the libstdc++ `(y & 1) ? kMatrixA : 0`
  // without the 64-bit compare, so both loops vectorize.
  const auto next = [](uint64_t head, uint64_t tail, uint64_t far) {
    const uint64_t y = (head & kUpper) | (tail & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  };
  size_t k = 0;
  for (; k < kN - kM; ++k) {
    state_[k] = next(state_[k], state_[k + 1], state_[k + kM]);
  }
  for (; k < kN - 1; ++k) {
    state_[k] = next(state_[k], state_[k + 1], state_[k + kM - kN]);
  }
  state_[kN - 1] = next(state_[kN - 1], state_[0], state_[kM - 1]);
  next_ = 0;
}

std::vector<uint64_t> Rng::SampleWithoutReplacement(uint64_t n, uint64_t k) {
  if (k >= n) {
    std::vector<uint64_t> all(n);
    for (uint64_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  // Floyd's algorithm: for j in [n-k, n), pick t in [0, j]; insert t unless
  // already present, in which case insert j.
  std::unordered_set<uint64_t> chosen;
  chosen.reserve(k * 2);
  std::vector<uint64_t> out;
  out.reserve(k);
  for (uint64_t j = n - k; j < n; ++j) {
    uint64_t t = NextUint(j + 1);
    if (chosen.contains(t)) t = j;
    chosen.insert(t);
    out.push_back(t);
  }
  return out;
}

}  // namespace sparsify
