#include "src/metrics/louvain.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "src/util/cancel.h"

namespace sparsify {

namespace {

// One level of Louvain on a weighted undirected multigraph given as
// adjacency (with self-loop weights from contracted communities).
// Returns the labels found and writes the contracted graph for the next
// level. `two_m` is the total weight of all edges * 2.
struct Level {
  std::vector<int> label;
  int num_communities = 0;
  bool improved = false;
};

Level OneLevel(const std::vector<std::vector<std::pair<int, double>>>& adj,
               const std::vector<double>& self_loop, double two_m, Rng& rng) {
  const int n = static_cast<int>(adj.size());
  Level lvl;
  lvl.label.resize(n);
  std::iota(lvl.label.begin(), lvl.label.end(), 0);

  // Weighted degree of each node (including self loops twice).
  std::vector<double> k(n, 0.0);
  for (int v = 0; v < n; ++v) {
    k[v] = 2.0 * self_loop[v];
    for (auto [u, w] : adj[v]) k[v] += w;
  }
  // Total degree of each community.
  std::vector<double> sigma_tot = k;

  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);

  std::unordered_map<int, double> weight_to;  // community -> edge weight
  bool any_move = false;
  for (int pass = 0; pass < 32; ++pass) {
    // One poll per local-moving sweep: a sweep visits every node once.
    SPARSIFY_CHECK_CANCELLED();
    bool moved = false;
    for (int v : order) {
      int cur = lvl.label[v];
      weight_to.clear();
      weight_to[cur] += 0.0;
      for (auto [u, w] : adj[v]) weight_to[lvl.label[u]] += w;
      // Remove v from its community.
      sigma_tot[cur] -= k[v];
      double best_gain = 0.0;
      int best_comm = cur;
      double w_cur = weight_to.count(cur) ? weight_to[cur] : 0.0;
      for (const auto& [comm, w_in] : weight_to) {
        // Delta modularity of moving v into comm (relative to staying
        // alone): w_in/m - sigma_tot*k_v/(2 m^2); compare scaled by 2m.
        double gain =
            (w_in - w_cur) - (sigma_tot[comm] - sigma_tot[cur]) * k[v] / two_m;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_comm = comm;
        }
      }
      sigma_tot[best_comm] += k[v];
      if (best_comm != cur) {
        lvl.label[v] = best_comm;
        moved = true;
        any_move = true;
      }
    }
    if (!moved) break;
  }
  // Compact labels.
  std::unordered_map<int, int> remap;
  for (int& lab : lvl.label) {
    auto [it, inserted] = remap.try_emplace(lab, lvl.num_communities);
    if (inserted) ++lvl.num_communities;
    lab = it->second;
  }
  lvl.improved = any_move;
  return lvl;
}

}  // namespace

double Modularity(const Graph& g, const std::vector<int>& label) {
  double m = g.TotalEdgeWeight();
  if (m <= 0.0) return 0.0;
  int num_comm = 0;
  for (int lab : label) num_comm = std::max(num_comm, lab + 1);
  std::vector<double> intra(num_comm, 0.0), total(num_comm, 0.0);
  for (const Edge& e : g.Edges()) {
    if (label[e.u] == label[e.v]) intra[label[e.u]] += e.w;
    total[label[e.u]] += e.w;
    total[label[e.v]] += e.w;
  }
  double q = 0.0;
  for (int c = 0; c < num_comm; ++c) {
    q += intra[c] / m - (total[c] / (2.0 * m)) * (total[c] / (2.0 * m));
  }
  return q;
}

Clustering LouvainCommunities(const Graph& g, Rng& rng, int max_passes) {
  Graph sym_holder;
  const Graph* ug = &g;
  if (g.IsDirected()) {
    sym_holder = g.Symmetrized();
    ug = &sym_holder;
  }
  const int n = static_cast<int>(ug->NumVertices());
  Clustering result;
  result.label.resize(n);
  std::iota(result.label.begin(), result.label.end(), 0);
  result.num_clusters = n;
  double two_m = 2.0 * ug->TotalEdgeWeight();
  if (two_m <= 0.0) {
    result.modularity = 0.0;
    return result;
  }

  // Working multigraph.
  std::vector<std::vector<std::pair<int, double>>> adj(n);
  std::vector<double> self_loop(n, 0.0);
  for (const Edge& e : ug->Edges()) {
    adj[e.u].emplace_back(static_cast<int>(e.v), e.w);
    adj[e.v].emplace_back(static_cast<int>(e.u), e.w);
  }

  for (int level = 0; level < max_passes; ++level) {
    Level lvl = OneLevel(adj, self_loop, two_m, rng);
    // Map global labels through this level's labels.
    for (int v = 0; v < n; ++v) {
      result.label[v] = lvl.label[result.label[v]];
    }
    result.num_clusters = lvl.num_communities;
    if (!lvl.improved) break;
    // Contract communities into a smaller multigraph.
    int nc = lvl.num_communities;
    std::vector<std::unordered_map<int, double>> merged(nc);
    std::vector<double> new_self(nc, 0.0);
    for (size_t v = 0; v < adj.size(); ++v) {
      int cv = lvl.label[v];
      new_self[cv] += self_loop[v];
      for (auto [u, w] : adj[v]) {
        int cu = lvl.label[u];
        if (cu == cv) {
          // Each undirected edge appears twice in adj; halve to a loop.
          new_self[cv] += 0.5 * w;
        } else {
          merged[cv][cu] += w;
        }
      }
    }
    adj.assign(nc, {});
    self_loop = std::move(new_self);
    for (int c = 0; c < nc; ++c) {
      adj[c].reserve(merged[c].size());
      for (const auto& [u, w] : merged[c]) adj[c].emplace_back(u, w);
      std::sort(adj[c].begin(), adj[c].end());
    }
    if (nc == static_cast<int>(lvl.label.size())) break;  // no contraction
  }
  result.modularity = Modularity(*ug, result.label);
  return result;
}

}  // namespace sparsify
