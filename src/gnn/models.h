// The two GNN models the paper evaluates (section 3.3.4): GraphSAGE
// (Hamilton et al., mean aggregator) and ClusterGCN-style GCN trained over
// cluster partitions. Both are 2-layer node classifiers trained with Adam
// and manual backprop on CPU.
//
// Experiment protocol (paper section 3.3): train on the SPARSIFIED graph,
// evaluate on the FULL graph — the accuracy drop measures how much
// label-relevant structure the sparsifier destroyed.
#ifndef SPARSIFY_GNN_MODELS_H_
#define SPARSIFY_GNN_MODELS_H_

#include <vector>

#include "src/gnn/aggregate.h"
#include "src/gnn/data.h"
#include "src/gnn/nn.h"
#include "src/graph/graph.h"

namespace sparsify {

/// Two-layer GraphSAGE with mean aggregation:
///   H1 = ReLU([X | mean_nbr(X)] W1 + b1)
///   Z  = [H1 | mean_nbr(H1)] W2 + b2
class GraphSage {
 public:
  GraphSage(size_t in_dim, size_t hidden_dim, size_t num_classes, Rng& rng,
            double lr = 1e-2);

  /// One full-batch epoch of training on `g`; returns the mean loss over
  /// `train_rows`.
  double TrainEpoch(const Graph& g, const Matrix& x,
                    const std::vector<int>& labels,
                    const std::vector<int>& train_rows);

  /// Logits for every vertex of `g`.
  Matrix Forward(const Graph& g, const Matrix& x) const;

 private:
  Matrix w1_, b1_, w2_, b2_;
  Adam opt_w1_, opt_b1_, opt_w2_, opt_b2_;
};

/// Two-layer GCN with D^{-1}(A+I) propagation, trained over cluster
/// partitions (ClusterGCN, Chiang et al.): each step runs forward/backward
/// on the subgraph induced by one batch of clusters, severing inter-batch
/// edges exactly as ClusterGCN does.
class ClusterGcn {
 public:
  ClusterGcn(size_t in_dim, size_t hidden_dim, size_t num_classes, Rng& rng,
             double lr = 1e-2);

  /// One epoch over all `batches` (each a list of vertex ids). Returns the
  /// mean loss over batches.
  double TrainEpoch(const Graph& g, const Matrix& x,
                    const std::vector<int>& labels,
                    const std::vector<int>& train_rows,
                    const std::vector<std::vector<NodeId>>& batches);

  /// Full-graph logits.
  Matrix Forward(const Graph& g, const Matrix& x) const;

 private:
  Matrix w1_, b1_, w2_, b2_;
  Adam opt_w1_, opt_b1_, opt_w2_, opt_b2_;
};

/// Groups cluster labels into batches of at least `min_batch_vertices`
/// vertices (ClusterGCN's stochastic multiple-partitions scheme,
/// deterministic variant: clusters are taken in label order).
std::vector<std::vector<NodeId>> MakeClusterBatches(
    const std::vector<int>& cluster_labels, size_t min_batch_vertices);

/// Subgraph of `g` induced by `vertices` with local re-indexing; also
/// returns the row-sliced feature/label views for the batch.
struct InducedBatch {
  Graph graph;
  Matrix features;
  std::vector<int> labels;
  std::vector<int> local_train_rows;
  std::vector<NodeId> global_ids;
};
InducedBatch InduceBatch(const Graph& g, const Matrix& x,
                         const std::vector<int>& labels,
                         const std::vector<uint8_t>& is_train,
                         const std::vector<NodeId>& vertices);

/// Figure 13's protocol for both models: a fresh model (hidden width 16,
/// Adam at lr 5e-2) trains for 60 epochs on `train_graph` and is scored on
/// `full_graph` over data.test_rows. `rng` seeds the weights (and, for
/// ClusterGCN, the Louvain clustering); equal inputs give equal scores.
///
/// GraphSAGE, full-batch; returns the macro AUROC.
double TrainSageAuroc(const Graph& train_graph, const Graph& full_graph,
                      const NodeClassificationData& data, Rng& rng);

/// ClusterGCN over the Louvain clusters of `train_graph`, batched to at
/// least max(64, |V|/8) vertices; returns the accuracy.
double TrainClusterGcnAccuracy(const Graph& train_graph,
                               const Graph& full_graph,
                               const NodeClassificationData& data, Rng& rng);

}  // namespace sparsify

#endif  // SPARSIFY_GNN_MODELS_H_
