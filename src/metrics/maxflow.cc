#include "src/metrics/maxflow.h"

#include <algorithm>
#include <limits>

#include "src/metrics/components.h"
#include "src/util/cancel.h"

namespace sparsify {

namespace {

// Dinic's algorithm over an explicit residual arc list.
class Dinic {
 public:
  explicit Dinic(NodeId n) : head_(n, -1), level_(n), iter_(n) {}

  void AddArc(NodeId u, NodeId v, double cap_uv, double cap_vu) {
    arcs_.push_back({v, head_[u], cap_uv});
    head_[u] = static_cast<int>(arcs_.size()) - 1;
    arcs_.push_back({u, head_[v], cap_vu});
    head_[v] = static_cast<int>(arcs_.size()) - 1;
  }

  double Run(NodeId s, NodeId t) {
    double flow = 0.0;
    while (Bfs(s, t)) {
      std::copy(head_.begin(), head_.end(), iter_.begin());
      double f;
      while ((f = Dfs(s, t, std::numeric_limits<double>::infinity())) > 0.0) {
        flow += f;
      }
    }
    return flow;
  }

 private:
  struct Arc {
    NodeId to;
    int next;
    double cap;
  };

  // Level BFS over the residual arcs. A flat frontier vector with a head
  // cursor replaces the old std::deque-backed std::queue: identical FIFO
  // pop order (so identical level assignment), reused across the O(V)
  // phases of a single Run with zero per-phase allocation.
  bool Bfs(NodeId s, NodeId t) {
    SPARSIFY_CHECK_CANCELLED();  // once per phase
    std::fill(level_.begin(), level_.end(), -1);
    frontier_.clear();
    level_[s] = 0;
    frontier_.push_back(s);
    for (size_t head = 0; head < frontier_.size(); ++head) {
      NodeId v = frontier_[head];
      for (int i = head_[v]; i >= 0; i = arcs_[i].next) {
        const Arc& a = arcs_[i];
        if (a.cap > 1e-12 && level_[a.to] < 0) {
          level_[a.to] = level_[v] + 1;
          frontier_.push_back(a.to);
        }
      }
    }
    return level_[t] >= 0;
  }

  double Dfs(NodeId v, NodeId t, double limit) {
    if (v == t) return limit;
    for (int& i = iter_[v]; i >= 0; i = arcs_[i].next) {
      Arc& a = arcs_[i];
      if (a.cap > 1e-12 && level_[a.to] == level_[v] + 1) {
        double d = Dfs(a.to, t, std::min(limit, a.cap));
        if (d > 0.0) {
          a.cap -= d;
          arcs_[i ^ 1].cap += d;
          return d;
        }
      }
    }
    return 0.0;
  }

  std::vector<Arc> arcs_;
  std::vector<int> head_;
  std::vector<int> level_;
  std::vector<int> iter_;
  std::vector<NodeId> frontier_;
};

}  // namespace

double MaxFlow(const Graph& g, NodeId s, NodeId t) {
  if (s == t) return 0.0;
  Dinic dinic(g.NumVertices());
  for (const Edge& e : g.Edges()) {
    if (g.IsDirected()) {
      dinic.AddArc(e.u, e.v, e.w, 0.0);
    } else {
      dinic.AddArc(e.u, e.v, e.w, e.w);
    }
  }
  return dinic.Run(s, t);
}

FlowStretchResult MaxFlowStretch(const Graph& original,
                                 const Graph& sparsified, int num_pairs,
                                 Rng& rng) {
  FlowStretchResult result;
  const NodeId n = original.NumVertices();
  if (n < 2 || num_pairs <= 0) return result;
  ComponentResult cc = ConnectedComponents(original);
  std::vector<double> ratios;
  int zero = 0, total = 0;
  int attempts = 0;
  const int max_attempts = num_pairs * 50;
  while (total < num_pairs && attempts++ < max_attempts) {
    NodeId s = static_cast<NodeId>(rng.NextUint(n));
    NodeId t = static_cast<NodeId>(rng.NextUint(n));
    if (s == t || cc.label[s] != cc.label[t]) continue;  // excluded pairs
    double fo = MaxFlow(original, s, t);
    if (fo <= 0.0) continue;
    ++total;
    double fs = MaxFlow(sparsified, s, t);
    if (fs <= 0.0) ++zero;
    ratios.push_back(fs / fo);
  }
  double sum = 0.0;
  for (double r : ratios) sum += r;
  result.mean_ratio = ratios.empty() ? 0.0 : sum / ratios.size();
  result.pairs_evaluated = total;
  result.zero_flow_fraction =
      total > 0 ? static_cast<double>(zero) / total : 0.0;
  return result;
}

}  // namespace sparsify
