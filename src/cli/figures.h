// Registry of the paper's figures: dataset, sparsifier list, prune rates,
// metric and reference lines for each. This file holds data only:
// `sparsify_cli figure <id ...>` expands each id into one job of the same
// driver `sweep` runs (same engine, store, fault policy and exit codes)
// and prints it as the figure's table or CSV.
//
// Figures score with registry metrics or with figure-private ones (see
// FigureMetric) that keep the original figure protocols' sample counts,
// fixed reference seeds and, for Figure 13, the GNN training task. Either
// way a full-graph reference is prepared by the engine's reference stage,
// only when some cell needs it.
#ifndef SPARSIFY_CLI_FIGURES_H_
#define SPARSIFY_CLI_FIGURES_H_

#include <functional>
#include <string>
#include <vector>

#include "src/eval/experiment.h"
#include "src/graph/datasets.h"

namespace sparsify::cli {

/// One figure of the paper (or a companion panel).
struct FigureSpec {
  std::string id;          // e.g. "1a", "4a-unreach"
  std::string title;       // full figure title
  std::string value_name;  // pivot-table row-header label
  std::string dataset;     // dataset name (datasets.h)
  double default_scale = 0.5;  // the original bench's default --scale
  std::vector<std::string> sparsifiers;
  std::string metric;  // NamedMetrics name, or a figure-private metric
  std::vector<double> rates;  // prune rates; empty = SweepConfig's nine
  // Full-graph reference value (the figures' green dashed line); null for
  // figures without one.
  std::function<double(const Dataset&)> reference;
  // Empty-graph baseline (Figure 13's red line), printed under the
  // reference line; null for figures without one.
  std::function<double(const Dataset&)> baseline;
};

/// The store's dataset identity for a scaled stand-in: "name@scale". The
/// scale is part of the name because scaled stand-ins are different graphs.
std::string DatasetCellName(const std::string& dataset, double scale);

/// All figures, paper order.
const std::vector<FigureSpec>& AllFigures();

/// Looks a figure up by id; nullptr when absent.
const FigureSpec* FindFigure(const std::string& id);

/// Resolves a figure's metric name on `dataset`, the figure's own graph:
/// a figure-private metric (whose closures point into `dataset`, so it
/// must outlive the metric) or else the registry's FindMetric(name).
BatchMetric FigureMetric(const std::string& name, const Dataset& dataset);

}  // namespace sparsify::cli

#endif  // SPARSIFY_CLI_FIGURES_H_
