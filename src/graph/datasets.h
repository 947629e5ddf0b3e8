// Registry of the paper's 14 evaluation datasets (Table 3), realized as
// synthetic stand-ins.
//
// The real datasets (SNAP, SuiteSparse, OGB) cannot ship with this offline
// reproduction, so each is replaced by a generator configuration that
// matches its category's structural traits and Table 3 flags (directedness,
// weights, connectivity), scaled to laptop size. The mapping is documented
// in DESIGN.md section 3. Seeds are fixed: `LoadDataset` is deterministic.
#ifndef SPARSIFY_GRAPH_DATASETS_H_
#define SPARSIFY_GRAPH_DATASETS_H_

#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace sparsify {

/// Static description of a dataset (the columns of Table 3).
struct DatasetInfo {
  std::string name;
  std::string category;
  bool directed = false;
  bool weighted = false;
  bool connected = false;  // Table 3 "Connected?" flag of the original
  std::string standin;     // generator recipe used as the synthetic stand-in
};

/// A loaded dataset: the graph plus ground-truth communities when the
/// generator provides them (empty otherwise).
struct Dataset {
  DatasetInfo info;
  Graph graph;
  std::vector<int> communities;
};

/// Names of all 14 datasets, in Table 3 order.
std::vector<std::string> DatasetNames();

/// Info for all datasets (for regenerating Table 3).
std::vector<DatasetInfo> AllDatasetInfos();

/// Loads a dataset by name; throws std::invalid_argument for unknown names.
/// Deterministic: repeated calls return identical graphs.
Dataset LoadDataset(const std::string& name);

/// Loads a resized variant: same generator family and flags, roughly
/// `scale` times the vertices (at least 64). Throws std::invalid_argument
/// for an unknown name or a scale that is not finite and > 0.
Dataset LoadDatasetScaled(const std::string& name, double scale);

}  // namespace sparsify

#endif  // SPARSIFY_GRAPH_DATASETS_H_
