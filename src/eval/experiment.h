// Experiment harness: the N-to-N sweep machinery of the paper's framework
// (section 3.2). Runs every requested sparsifier over the prune-rate grid
// 0.1..0.9, averaging non-deterministic sparsifiers over multiple runs and
// reporting the standard deviation, exactly as the paper's protocol
// prescribes (10 graphs per point for non-deterministic sparsifiers; the
// run count is configurable here because the full paper protocol is
// laptop-hostile).
#ifndef SPARSIFY_EVAL_EXPERIMENT_H_
#define SPARSIFY_EVAL_EXPERIMENT_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/engine/batch_runner.h"
#include "src/graph/graph.h"
#include "src/sparsifiers/sparsifier.h"

namespace sparsify {

/// One (sparsifier, prune rate) cell of a sweep.
struct SweepPoint {
  double requested_prune_rate = 0.0;
  double achieved_prune_rate = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  int runs = 0;
};

/// All points of one sparsifier across the prune-rate grid.
struct SweepSeries {
  std::string sparsifier;
  std::vector<SweepPoint> points;
};

/// Sweep configuration.
struct SweepConfig {
  std::vector<std::string> sparsifiers;  // short names; empty = all
  std::vector<double> prune_rates = {0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.6, 0.7, 0.8, 0.9};
  int runs_nondeterministic = 5;  // paper uses 10
  uint64_t seed = 42;
};

/// Builds the engine grid spec equivalent to `config` (threads excluded —
/// that is a runner property). The resumable sweep expands and keys its
/// grid from this.
BatchSpec ToBatchSpec(const SweepConfig& config);

/// Folds one point's runs: mean and stddev of `values` and the mean of
/// `achieved`, their achieved prune rates. A fixed-output sparsifier
/// reports that achieved mean as its rate. With no values the point keeps
/// `requested_rate`, reports runs 0 and NaN statistics. The sweep fold and
/// the store export both build their points here.
SweepPoint FoldPoint(double requested_rate, const std::vector<double>& values,
                     const std::vector<double>& achieved, bool fixed_output);

/// Folds full-grid engine results (grid order, one entry per ExpandGrid
/// task) into per-sparsifier series: mean/stddev across runs per rate,
/// requested rate replaced by the achieved mean for fixed-output
/// algorithms. The resumable sweep folds stored and fresh cells through
/// this one function, so both reassemble identically.
std::vector<SweepSeries> FoldSweepResults(const SweepConfig& config,
                                          const std::vector<BatchResult>& results);

/// Prints `series` as CSV rows:
/// sparsifier,prune_rate,achieved_prune_rate,value,stddev,runs.
void PrintSeriesCsv(std::ostream& os, const std::string& title,
                    const std::vector<SweepSeries>& series);

/// Prints `series` as a pivot table (rows = sparsifiers, columns = prune
/// rates) with optional reference value lines: the figures' green "ground
/// truth on the full graph" dashed line and, under it, Figure 13's red
/// empty-graph baseline.
void PrintSeriesTable(std::ostream& os, const std::string& title,
                      const std::string& value_name,
                      const std::vector<SweepSeries>& series,
                      std::optional<double> reference = std::nullopt,
                      std::optional<double> baseline = std::nullopt);

}  // namespace sparsify

#endif  // SPARSIFY_EVAL_EXPERIMENT_H_
