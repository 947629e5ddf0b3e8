#include "src/sparsifiers/minhash.h"

#include <limits>

#include "src/util/cancel.h"

namespace sparsify {

namespace {

// SplitMix64-style avalanche; (key, salt) -> 64-bit hash.
uint64_t HashWithSalt(uint64_t key, uint64_t salt) {
  uint64_t z = key + salt * 0x9e3779b97f4a7c15ULL + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

MinHashSignatures::MinHashSignatures(const Graph& g, int num_hashes,
                                     Rng& rng)
    : num_hashes_(num_hashes), num_vertices_(g.NumVertices()) {
  sig_.assign(static_cast<size_t>(num_hashes) * num_vertices_,
              std::numeric_limits<uint64_t>::max());
  std::vector<uint64_t> salts(num_hashes);
  for (uint64_t& s : salts) s = rng();
  for (int h = 0; h < num_hashes; ++h) {
    uint64_t* row = sig_.data() + static_cast<size_t>(h) * num_vertices_;
    for (NodeId v = 0; v < num_vertices_; ++v) {
      if ((v & 1023u) == 0) SPARSIFY_CHECK_CANCELLED();
      for (NodeId u : g.OutNeighborNodes(v)) {
        uint64_t hv = HashWithSalt(u, salts[h]);
        if (hv < row[v]) row[v] = hv;
      }
    }
  }
}

double MinHashSignatures::EstimateJaccard(NodeId u, NodeId v) const {
  int agree = 0;
  for (int h = 0; h < num_hashes_; ++h) {
    const uint64_t* row = sig_.data() + static_cast<size_t>(h) * num_vertices_;
    // Two empty neighborhoods both hold max(); count as agreement only if
    // at least one is non-empty to avoid 1.0 for isolated pairs.
    if (row[u] == row[v] &&
        row[u] != std::numeric_limits<uint64_t>::max()) {
      ++agree;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(num_hashes_);
}

std::vector<double> MinHashJaccardEdgeScores(const Graph& g, int num_hashes,
                                             Rng& rng) {
  MinHashSignatures sig(g, num_hashes, rng);
  std::vector<double> scores(g.NumEdges(), 0.0);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if ((e & 4095u) == 0) SPARSIFY_CHECK_CANCELLED();
    const Edge& ed = g.CanonicalEdge(e);
    scores[e] = sig.EstimateJaccard(ed.u, ed.v);
  }
  return scores;
}

}  // namespace sparsify
