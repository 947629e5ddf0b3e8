// Named metric registry shared by the CLI driver, the bench figure specs,
// and any store-backed sweep: a stable metric NAME is what a CellKey
// records AND what seeds the (cell, metric) and reference RNG streams
// (BatchRunner::MetricSeed, ReferenceSeed), so every consumer must agree on
// what that name computes.
//
// Metrics that compare against a full-graph reference (the centrality
// top-100 precisions, clustering F1, the degree distribution) are
// two-phase: the engine prepares the reference once per (dataset, input
// graph) and every unit scores its subgraph against it. The rest are
// one-call.
//
// Sample counts are fixed canonical values (documented per metric in the
// .cc); changing one changes numeric output and therefore requires a
// kResultCodeRev bump.
#ifndef SPARSIFY_CLI_METRICS_H_
#define SPARSIFY_CLI_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "src/eval/experiment.h"

namespace sparsify::cli {

/// One registered metric: the computation (named by its registry key) plus
/// the metadata the `metrics` subcommand lists.
struct NamedMetric {
  BatchMetric metric;
  std::string description;  // one line, paper-figure reference included
  // True when the metric consumes its per-cell or reference RNG stream
  // (sampled pairs, pivots, or visit orders); deterministic metrics ignore
  // the streams and are numerically identical across pipeline RNG
  // revisions.
  bool sampled = false;
};

/// All named metrics, keyed by registry name.
const std::map<std::string, NamedMetric>& NamedMetrics();

/// Names only, registry order (alphabetical — std::map iteration).
std::vector<std::string> MetricNames();

/// Looks a metric up; throws std::invalid_argument with the known names
/// listed when `name` is absent. Outside the engine, evaluate it with
/// EvaluateMetric.
const BatchMetric& FindMetric(const std::string& name);

}  // namespace sparsify::cli

#endif  // SPARSIFY_CLI_METRICS_H_
