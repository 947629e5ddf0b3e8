#include "src/gnn/models.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "src/metrics/louvain.h"
#include "src/util/cancel.h"

namespace sparsify {

namespace {

constexpr int kProtocolHiddenDim = 16;
constexpr int kProtocolEpochs = 60;
constexpr double kProtocolLearningRate = 5e-2;

Matrix ColSum(const Matrix& m) {
  Matrix out(1, m.cols);
  for (size_t i = 0; i < m.rows; ++i) {
    const double* row = m.Row(i);
    for (size_t j = 0; j < m.cols; ++j) out.At(0, j) += row[j];
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// GraphSAGE

GraphSage::GraphSage(size_t in_dim, size_t hidden_dim, size_t num_classes,
                     Rng& rng, double lr)
    : w1_(2 * in_dim, hidden_dim),
      b1_(1, hidden_dim),
      w2_(2 * hidden_dim, num_classes),
      b2_(1, num_classes),
      opt_w1_(2 * in_dim, hidden_dim, lr),
      opt_b1_(1, hidden_dim, lr),
      opt_w2_(2 * hidden_dim, num_classes, lr),
      opt_b2_(1, num_classes, lr) {
  GlorotInit(&w1_, rng);
  GlorotInit(&w2_, rng);
}

Matrix GraphSage::Forward(const Graph& g, const Matrix& x) const {
  Matrix c0 = HConcat(x, MeanAggregate(g, x));
  Matrix h1 = MatMul(c0, w1_);
  AddBias(b1_, &h1);
  ReluInPlace(&h1);
  Matrix c1 = HConcat(h1, MeanAggregate(g, h1));
  Matrix logits = MatMul(c1, w2_);
  AddBias(b2_, &logits);
  return logits;
}

double GraphSage::TrainEpoch(const Graph& g, const Matrix& x,
                             const std::vector<int>& labels,
                             const std::vector<int>& train_rows) {
  SPARSIFY_CHECK_CANCELLED();  // once per epoch
  // Forward with caches.
  Matrix c0 = HConcat(x, MeanAggregate(g, x));
  Matrix h1 = MatMul(c0, w1_);
  AddBias(b1_, &h1);
  ReluInPlace(&h1);
  Matrix c1 = HConcat(h1, MeanAggregate(g, h1));
  Matrix logits = MatMul(c1, w2_);
  AddBias(b2_, &logits);

  Matrix dlogits;
  double loss = SoftmaxCrossEntropy(logits, labels, train_rows, &dlogits);

  // Backward.
  Matrix dw2 = MatTMul(c1, dlogits);
  Matrix db2 = ColSum(dlogits);
  Matrix dc1 = MatMulT(dlogits, w2_);
  Matrix dh1_direct, dm1;
  HSplit(dc1, h1.cols, &dh1_direct, &dm1);
  Matrix dh1 = MeanAggregateTranspose(g, dm1);
  for (size_t i = 0; i < dh1.data.size(); ++i) {
    dh1.data[i] += dh1_direct.data[i];
  }
  ReluBackward(h1, &dh1);
  Matrix dw1 = MatTMul(c0, dh1);
  Matrix db1 = ColSum(dh1);

  opt_w2_.Step(dw2, &w2_);
  opt_b2_.Step(db2, &b2_);
  opt_w1_.Step(dw1, &w1_);
  opt_b1_.Step(db1, &b1_);
  return loss;
}

// ---------------------------------------------------------------------------
// ClusterGCN

ClusterGcn::ClusterGcn(size_t in_dim, size_t hidden_dim, size_t num_classes,
                       Rng& rng, double lr)
    : w1_(in_dim, hidden_dim),
      b1_(1, hidden_dim),
      w2_(hidden_dim, num_classes),
      b2_(1, num_classes),
      opt_w1_(in_dim, hidden_dim, lr),
      opt_b1_(1, hidden_dim, lr),
      opt_w2_(hidden_dim, num_classes, lr),
      opt_b2_(1, num_classes, lr) {
  GlorotInit(&w1_, rng);
  GlorotInit(&w2_, rng);
}

Matrix ClusterGcn::Forward(const Graph& g, const Matrix& x) const {
  Matrix a0 = GcnAggregate(g, x);
  Matrix h1 = MatMul(a0, w1_);
  AddBias(b1_, &h1);
  ReluInPlace(&h1);
  Matrix p1 = GcnAggregate(g, h1);
  Matrix logits = MatMul(p1, w2_);
  AddBias(b2_, &logits);
  return logits;
}

double ClusterGcn::TrainEpoch(const Graph& g, const Matrix& x,
                              const std::vector<int>& labels,
                              const std::vector<int>& train_rows,
                              const std::vector<std::vector<NodeId>>& batches) {
  SPARSIFY_CHECK_CANCELLED();  // once per epoch
  std::vector<uint8_t> is_train(g.NumVertices(), 0);
  for (int r : train_rows) is_train[r] = 1;
  double total_loss = 0.0;
  int counted = 0;
  for (const std::vector<NodeId>& batch : batches) {
    InducedBatch ib = InduceBatch(g, x, labels, is_train, batch);
    if (ib.local_train_rows.empty()) continue;
    // Forward on the induced subgraph.
    Matrix a0 = GcnAggregate(ib.graph, ib.features);
    Matrix h1 = MatMul(a0, w1_);
    AddBias(b1_, &h1);
    ReluInPlace(&h1);
    Matrix p1 = GcnAggregate(ib.graph, h1);
    Matrix logits = MatMul(p1, w2_);
    AddBias(b2_, &logits);

    Matrix dlogits;
    total_loss += SoftmaxCrossEntropy(logits, ib.labels, ib.local_train_rows,
                                      &dlogits);
    ++counted;

    Matrix dw2 = MatTMul(p1, dlogits);
    Matrix db2 = ColSum(dlogits);
    Matrix dp1 = MatMulT(dlogits, w2_);
    Matrix dh1 = GcnAggregateTranspose(ib.graph, dp1);
    ReluBackward(h1, &dh1);
    Matrix dw1 = MatTMul(a0, dh1);
    Matrix db1 = ColSum(dh1);

    opt_w2_.Step(dw2, &w2_);
    opt_b2_.Step(db2, &b2_);
    opt_w1_.Step(dw1, &w1_);
    opt_b1_.Step(db1, &b1_);
  }
  return counted > 0 ? total_loss / counted : 0.0;
}

// ---------------------------------------------------------------------------
// Batching helpers

std::vector<std::vector<NodeId>> MakeClusterBatches(
    const std::vector<int>& cluster_labels, size_t min_batch_vertices) {
  int num_clusters = 0;
  for (int lab : cluster_labels) {
    num_clusters = std::max(num_clusters, lab + 1);
  }
  std::vector<std::vector<NodeId>> by_cluster(num_clusters);
  for (NodeId v = 0; v < cluster_labels.size(); ++v) {
    by_cluster[cluster_labels[v]].push_back(v);
  }
  std::vector<std::vector<NodeId>> batches;
  std::vector<NodeId> current;
  for (const std::vector<NodeId>& cluster : by_cluster) {
    current.insert(current.end(), cluster.begin(), cluster.end());
    if (current.size() >= min_batch_vertices) {
      batches.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) {
    if (batches.empty()) {
      batches.push_back(std::move(current));
    } else {
      batches.back().insert(batches.back().end(), current.begin(),
                            current.end());
    }
  }
  return batches;
}

InducedBatch InduceBatch(const Graph& g, const Matrix& x,
                         const std::vector<int>& labels,
                         const std::vector<uint8_t>& is_train,
                         const std::vector<NodeId>& vertices) {
  InducedBatch ib;
  ib.global_ids = vertices;
  std::unordered_map<NodeId, NodeId> local;
  local.reserve(vertices.size());
  for (NodeId i = 0; i < vertices.size(); ++i) local[vertices[i]] = i;
  std::vector<Edge> edges;
  for (NodeId i = 0; i < vertices.size(); ++i) {
    NodeId v = vertices[i];
    auto nodes = g.OutNeighborNodes(v);
    auto edge_ids = g.OutNeighborEdges(v);
    for (size_t ni = 0; ni < nodes.size(); ++ni) {
      NodeId u = nodes[ni];
      auto it = local.find(u);
      if (it == local.end()) continue;
      // Undirected canonical edges would otherwise be added twice.
      if (!g.IsDirected() && u < v) continue;
      edges.push_back({i, it->second, g.EdgeWeight(edge_ids[ni])});
    }
  }
  ib.graph = Graph::FromEdges(static_cast<NodeId>(vertices.size()),
                              std::move(edges), g.IsDirected(),
                              g.IsWeighted());
  ib.features = Matrix(vertices.size(), x.cols);
  ib.labels.resize(vertices.size());
  for (NodeId i = 0; i < vertices.size(); ++i) {
    std::copy(x.Row(vertices[i]), x.Row(vertices[i]) + x.cols,
              ib.features.Row(i));
    ib.labels[i] = labels[vertices[i]];
    if (is_train[vertices[i]]) {
      ib.local_train_rows.push_back(static_cast<int>(i));
    }
  }
  return ib;
}

double TrainSageAuroc(const Graph& train_graph, const Graph& full_graph,
                      const NodeClassificationData& data, Rng& rng) {
  GraphSage model(data.features.cols, kProtocolHiddenDim, data.num_classes,
                  rng, kProtocolLearningRate);
  for (int epoch = 0; epoch < kProtocolEpochs; ++epoch) {
    model.TrainEpoch(train_graph, data.features, data.labels,
                     data.train_rows);
  }
  Matrix logits = model.Forward(full_graph, data.features);
  return MacroAuroc(logits, data.labels, data.test_rows);
}

double TrainClusterGcnAccuracy(const Graph& train_graph,
                               const Graph& full_graph,
                               const NodeClassificationData& data, Rng& rng) {
  Rng louvain_rng = rng.Fork();
  Clustering clusters = LouvainCommunities(train_graph, louvain_rng);
  auto batches = MakeClusterBatches(
      clusters.label, std::max<size_t>(64, train_graph.NumVertices() / 8));
  ClusterGcn model(data.features.cols, kProtocolHiddenDim, data.num_classes,
                   rng, kProtocolLearningRate);
  for (int epoch = 0; epoch < kProtocolEpochs; ++epoch) {
    model.TrainEpoch(train_graph, data.features, data.labels,
                     data.train_rows, batches);
  }
  Matrix logits = model.Forward(full_graph, data.features);
  return Accuracy(ArgmaxRows(logits), data.labels, data.test_rows);
}

}  // namespace sparsify
