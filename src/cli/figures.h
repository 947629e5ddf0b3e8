// Registry of the paper's sweep-shaped figures: dataset, sparsifier list,
// metric, and reference line for each, extracted from the former per-figure
// bench mains so that one driver (RunFigures) serves both the bench
// binaries (now thin wrappers) and `sparsify_cli figure`.
//
// Figures score with registry metrics or with figure-private ones (see
// FigureMetric in the .cc) that keep the original benches' sample counts
// and fixed reference seeds, so converted benches reproduce the same
// numbers. Either way a full-graph reference is prepared by the engine's
// reference stage, only when some cell needs it.
#ifndef SPARSIFY_CLI_FIGURES_H_
#define SPARSIFY_CLI_FIGURES_H_

#include <functional>
#include <iosfwd>
#include <optional>
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
  // Full-graph reference value (the figures' green dashed line); null for
  // figures without one.
  std::function<double(const Dataset&)> reference;
};

/// The store's dataset identity for a scaled stand-in: "name@scale". The
/// scale is part of the name because scaled stand-ins are different graphs.
std::string DatasetCellName(const std::string& dataset, double scale);

/// All figures, paper order.
const std::vector<FigureSpec>& AllFigures();

/// Looks a figure up by id; nullptr when absent.
const FigureSpec* FindFigure(const std::string& id);

/// Options for RunFigures, mirroring the bench flags.
struct FigureRunOptions {
  double scale = 0.0;  // <= 0 selects each figure's default_scale
  int runs = 3;
  int threads = 0;
  uint64_t seed = 42;
  bool csv = false;
  std::string store_dir;  // non-empty: persist cells under this directory
  bool resume = false;    // consult the store before scheduling
};

/// Runs the listed figures through the (resumable) sweep engine and prints
/// each as a pivot table or CSV. Returns a process exit code; unknown ids
/// report an error listing the known ones.
int RunFigures(const std::vector<std::string>& ids,
               const FigureRunOptions& opt, std::ostream& os);

}  // namespace sparsify::cli

#endif  // SPARSIFY_CLI_FIGURES_H_
