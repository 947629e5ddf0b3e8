// Sweep-throughput benchmark: quantifies the two work-sharing axes of the
// batch engine.
//
// Section 1 — rate axis (score-once). For each selected sparsifier it runs
// the paper's 9-rate sweep grid twice on the same BatchRunner —
//   cold:   one engine run per cell, so every cell rescores from scratch
//           (the pre-sharing execution model), and
//   shared: one engine run over the grid: one PrepareScores per
//           (sparsifier, run) with the rate axis fanned out as MaskForRate
//           tasks —
// and reports cells/sec, the score/subgraph/metric wall-clock split, and
// the cold/shared speedup per algorithm.
//
// Section 2 — metric axis (sparsify-once). Over the full selected-algo grid
// it evaluates a multi-metric set twice —
//   per-metric: one single-metric engine pass per metric, i.e. each metric
//               re-scores and re-materializes every subgraph (what a
//               per-metric-keyed sweep loop used to do), and
//   shared:     one RunTasksMulti pass materializing each cell's subgraph
//               once and fanning the metrics out over it —
// and reports the speedup plus the subgraph_builds vs cells×metrics
// counters. CI asserts score_groups < cells and
// subgraph_builds < cells_times_metrics via jq on the emitted JSON; the
// committed BENCH_sweep.json at the repo root is this benchmark's
// single-threaded output.
//
// Section 3 — distance metrics (traversal kernel). Over the same grid it
// runs the BFS/SSSP-bound metric set (--distance_metrics, default
// spsp,eccentricity,diameter) in one RunTasksMulti pass and reports
// units/sec plus the wall-clock split. These metrics are dominated by the
// shared traversal kernel (src/graph/traversal.h) — scratch-reusing,
// direction-optimizing BFS — so this section is the regression tripwire
// for distance-metric throughput (bench_traversal isolates the kernel
// itself).
//
// Usage: bench_sweep_throughput [--dataset=ego-Facebook] [--scale=0.3]
//          [--algos=LD,ER-uw,SCAN] [--metrics=connectivity,isolated,..]
//          [--distance_metrics=spsp,eccentricity,diameter]
//          [--runs=1] [--threads=1] [--seed=42] [--repeat=1]
//          [--out=BENCH_sweep.json] [--trace=trace.json]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cli/metrics.h"
#include "src/engine/batch_runner.h"
#include "src/graph/datasets.h"
#include "src/util/timer.h"

namespace sparsify::bench {
namespace {

struct SweepBenchOptions {
  std::string dataset = "ego-Facebook";
  double scale = 0.3;
  std::vector<std::string> algos = {"LD", "ER-uw", "SCAN"};
  // The multi-metric section's set: cheap structural metrics, so the
  // measured win is the eliminated scoring + subgraph work (the metric
  // evaluations themselves run in both modes and dilute the ratio as they
  // grow — swap in heavier metrics to see that regime).
  std::vector<std::string> metrics = {"connectivity", "isolated", "degree",
                                      "kcore"};
  // Section 3's BFS/SSSP-bound set, evaluated through the traversal
  // kernel.
  std::vector<std::string> distance_metrics = {"spsp", "eccentricity",
                                               "diameter"};
  int runs = 1;
  int threads = 1;
  int repeat = 1;  // timing repeats; the minimum is reported
  uint64_t seed = 42;
  std::string out = "BENCH_sweep.json";
  std::string trace;  // "" = spans stay disabled
};

struct AlgoResult {
  std::string name;
  size_t cells = 0;
  size_t score_groups = 0;
  double cold_seconds = 0.0;
  double shared_seconds = 0.0;
  double score_seconds = 0.0;
  double subgraph_seconds = 0.0;
  double metric_seconds = 0.0;
};

struct MultiMetricResult {
  size_t cells = 0;
  size_t metric_units = 0;  // cells × metrics
  size_t subgraph_builds = 0;
  size_t score_groups = 0;
  double per_metric_seconds = 0.0;  // one single-metric pass per metric
  double shared_seconds = 0.0;      // one multi-metric pass
  double subgraph_seconds = 0.0;
  double metric_seconds = 0.0;
};

bool ParseSweepBenchArgs(int argc, char** argv, SweepBenchOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--dataset=", 10) == 0) {
      opt->dataset = arg + 10;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      opt->scale = ParseDoubleFlag(arg + 8, "--scale");
    } else if (std::strncmp(arg, "--algos=", 8) == 0) {
      opt->algos = SplitCsvFlag(arg + 8);
    } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
      opt->metrics = SplitCsvFlag(arg + 10);
    } else if (std::strncmp(arg, "--distance_metrics=", 19) == 0) {
      opt->distance_metrics = SplitCsvFlag(arg + 19);
    } else if (std::strncmp(arg, "--runs=", 7) == 0) {
      opt->runs = static_cast<int>(ParseIntFlag(arg + 7, "--runs"));
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      opt->threads = static_cast<int>(ParseIntFlag(arg + 10, "--threads"));
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      opt->repeat = static_cast<int>(ParseIntFlag(arg + 9, "--repeat"));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt->seed = ParseUint64Flag(arg + 7, "--seed");
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      opt->out = arg + 6;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      opt->trace = arg + 8;
    } else {
      std::cerr << "error: unknown option '" << arg << "'\n"
                << "usage: bench_sweep_throughput [--dataset=NAME] "
                   "[--scale=f] [--algos=A,B] [--metrics=a,b] [--runs=n] "
                   "[--threads=n] [--repeat=n] [--seed=n] [--out=FILE] "
                   "[--trace=FILE]\n";
      return false;
    }
  }
  if (opt->algos.empty() || opt->metrics.empty() ||
      opt->distance_metrics.empty() || opt->repeat < 1 || opt->runs < 1) {
    std::cerr << "error: need at least one --algos, --metrics and "
                 "--distance_metrics entry, --repeat >= 1, and --runs >= "
                 "1\n";
    return false;
  }
  return true;
}

std::string Json(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonStringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += "\"" + items[i] + "\"" + (i + 1 < items.size() ? ", " : "");
  }
  return out + "]";
}

}  // namespace

int SweepThroughputMain(int argc, char** argv) {
  SweepBenchOptions opt;
  if (!ParseSweepBenchArgs(argc, argv, &opt)) return 2;
  BenchTraceScope trace_scope(opt.trace);

  Dataset d = LoadDatasetScaled(opt.dataset, opt.scale);
  std::string dataset_key = cli::DatasetCellName(opt.dataset, opt.scale);
  std::cout << "# " << dataset_key << ": " << d.graph.Summary() << "\n";

  // Section 1 metric: cheap and rng-free — this section measures the
  // scoring engine, not a metric implementation.
  const std::vector<BatchMetric> edge_ratio = {BatchMetric{
      "", [](const Graph& orig, const Graph& sp, Rng&) {
        return static_cast<double>(sp.NumEdges()) /
               static_cast<double>(std::max<EdgeId>(1, orig.NumEdges()));
      }}};

  BatchRunner runner(opt.threads);
  std::vector<AlgoResult> results;
  for (const std::string& algo : opt.algos) {
    BatchSpec spec;
    spec.sparsifiers = {algo};
    spec.runs = opt.runs;
    spec.master_seed = opt.seed;
    std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(spec);

    AlgoResult r;
    r.name = algo;
    r.cells = tasks.size();
    for (int rep = 0; rep < opt.repeat; ++rep) {
      Timer cold_timer;
      for (const BatchTask& task : tasks) {
        runner.RunTasksMulti(d.graph, "", {task}, spec.master_seed,
                             edge_ratio);
      }
      double cold = cold_timer.Seconds();

      BatchRunStats stats;
      Timer shared_timer;
      runner.RunTasksMulti(d.graph, "", tasks, spec.master_seed, edge_ratio,
                           nullptr, &stats);
      double shared = shared_timer.Seconds();

      if (rep == 0 || cold < r.cold_seconds) r.cold_seconds = cold;
      if (rep == 0 || shared < r.shared_seconds) {
        r.shared_seconds = shared;
        r.score_seconds = stats.score_seconds;
        r.subgraph_seconds = stats.subgraph_seconds;
        r.metric_seconds = stats.metric_seconds;
      }
      r.score_groups = stats.score_groups;
    }
    double speedup =
        r.shared_seconds > 0 ? r.cold_seconds / r.shared_seconds : 0.0;
    std::printf(
        "%-6s cells=%zu score_groups=%zu cold=%.3fs shared=%.3fs "
        "(score %.3fs + subgraph %.3fs + metric %.3fs) speedup=%.2fx "
        "%.1f cells/s\n",
        algo.c_str(), r.cells, r.score_groups, r.cold_seconds,
        r.shared_seconds, r.score_seconds, r.subgraph_seconds,
        r.metric_seconds, speedup,
        r.shared_seconds > 0 ? static_cast<double>(r.cells) /
                                   r.shared_seconds
                             : 0.0);
    results.push_back(std::move(r));
  }

  // Section 2 — metric axis: the full selected-algo grid, every metric.
  BatchSpec multi_spec;
  multi_spec.sparsifiers = opt.algos;
  multi_spec.runs = opt.runs;
  multi_spec.master_seed = opt.seed;
  std::vector<BatchTask> multi_tasks = BatchRunner::ExpandGrid(multi_spec);
  std::vector<BatchMetric> named_metrics;
  for (const std::string& name : opt.metrics) {
    named_metrics.push_back(BatchMetric{name, cli::FindMetric(name)});
  }

  MultiMetricResult mm;
  mm.cells = multi_tasks.size();
  for (int rep = 0; rep < opt.repeat; ++rep) {
    // Baseline: per-metric re-sparsification — each metric runs its own
    // engine pass, re-scoring and re-materializing every subgraph (the
    // pre-multi-metric sweep loop). Scoring is still shared along the
    // rate axis, so this baseline is the post-PR-3 state of the art.
    Timer per_metric_timer;
    for (const BatchMetric& m : named_metrics) {
      runner.RunTasksMulti(d.graph, dataset_key, multi_tasks, opt.seed, {m});
    }
    double per_metric = per_metric_timer.Seconds();

    // Shared: one pass, each subgraph materialized once, metrics fanned
    // out over it.
    BatchRunStats stats;
    Timer shared_timer;
    runner.RunTasksMulti(d.graph, dataset_key, multi_tasks, opt.seed,
                         named_metrics, nullptr, &stats);
    double shared = shared_timer.Seconds();

    if (rep == 0 || per_metric < mm.per_metric_seconds) {
      mm.per_metric_seconds = per_metric;
    }
    if (rep == 0 || shared < mm.shared_seconds) {
      mm.shared_seconds = shared;
      mm.subgraph_seconds = stats.subgraph_seconds;
      mm.metric_seconds = stats.metric_seconds;
    }
    mm.metric_units = stats.metric_units;
    mm.subgraph_builds = stats.subgraph_builds;
    mm.score_groups = stats.score_groups;
  }
  // Section 3 — distance metrics: one multi-metric pass of the
  // BFS/SSSP-bound set over the same grid. All traversal work funnels
  // through the shared kernel; the reported units/sec is the number this
  // PR-lane optimizes.
  std::vector<BatchMetric> dist_metrics;
  for (const std::string& name : opt.distance_metrics) {
    dist_metrics.push_back(BatchMetric{name, cli::FindMetric(name)});
  }
  MultiMetricResult dm;
  dm.cells = multi_tasks.size();
  for (int rep = 0; rep < opt.repeat; ++rep) {
    BatchRunStats stats;
    Timer dist_timer;
    runner.RunTasksMulti(d.graph, dataset_key, multi_tasks, opt.seed,
                         dist_metrics, nullptr, &stats);
    double secs = dist_timer.Seconds();
    if (rep == 0 || secs < dm.shared_seconds) {
      dm.shared_seconds = secs;
      dm.subgraph_seconds = stats.subgraph_seconds;
      dm.metric_seconds = stats.metric_seconds;
    }
    dm.metric_units = stats.metric_units;
    dm.subgraph_builds = stats.subgraph_builds;
    dm.score_groups = stats.score_groups;
  }
  std::printf(
      "dist   cells=%zu metrics=%zu units=%zu shared=%.3fs "
      "(subgraph %.3fs + metric %.3fs) %.1f units/s\n",
      dm.cells, opt.distance_metrics.size(), dm.metric_units,
      dm.shared_seconds, dm.subgraph_seconds, dm.metric_seconds,
      dm.shared_seconds > 0
          ? static_cast<double>(dm.metric_units) / dm.shared_seconds
          : 0.0);

  double mm_speedup =
      mm.shared_seconds > 0 ? mm.per_metric_seconds / mm.shared_seconds : 0.0;
  std::printf(
      "multi  cells=%zu metrics=%zu units=%zu subgraph_builds=%zu "
      "per-metric=%.3fs shared=%.3fs (subgraph %.3fs + metric %.3fs) "
      "speedup=%.2fx %.1f units/s\n",
      mm.cells, opt.metrics.size(), mm.metric_units, mm.subgraph_builds,
      mm.per_metric_seconds, mm.shared_seconds, mm.subgraph_seconds,
      mm.metric_seconds, mm_speedup,
      mm.shared_seconds > 0
          ? static_cast<double>(mm.metric_units) / mm.shared_seconds
          : 0.0);

  std::ostringstream json;
  json << "{\n";
  json << "  \"benchmark\": \"sweep_throughput\",\n";
  json << "  \"meta\": "
       << BenchMetaJson(opt.threads, opt.dataset + "@" + Json(opt.scale))
       << ",\n";
  json << "  \"dataset\": \"" << opt.dataset << "\",\n";
  json << "  \"scale\": " << Json(opt.scale) << ",\n";
  json << "  \"graph\": {\"vertices\": " << d.graph.NumVertices()
       << ", \"edges\": " << d.graph.NumEdges() << "},\n";
  json << "  \"threads\": " << opt.threads << ",\n";
  json << "  \"runs\": " << opt.runs << ",\n";
  json << "  \"repeat\": " << opt.repeat << ",\n";
  json << "  \"seed\": " << opt.seed << ",\n";
  json << "  \"algos\": [\n";
  double total_cold = 0.0, total_shared = 0.0;
  size_t total_cells = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const AlgoResult& r = results[i];
    total_cold += r.cold_seconds;
    total_shared += r.shared_seconds;
    total_cells += r.cells;
    json << "    {\"name\": \"" << r.name << "\", \"cells\": " << r.cells
         << ", \"score_groups\": " << r.score_groups
         << ", \"cold_seconds\": " << Json(r.cold_seconds)
         << ", \"shared_seconds\": " << Json(r.shared_seconds)
         << ", \"score_seconds\": " << Json(r.score_seconds)
         << ", \"subgraph_seconds\": " << Json(r.subgraph_seconds)
         << ", \"metric_seconds\": " << Json(r.metric_seconds)
         << ", \"speedup\": "
         << Json(r.shared_seconds > 0 ? r.cold_seconds / r.shared_seconds
                                      : 0.0)
         << ", \"cells_per_second_shared\": "
         << Json(r.shared_seconds > 0
                     ? static_cast<double>(r.cells) / r.shared_seconds
                     : 0.0)
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"total\": {\"cells\": " << total_cells
       << ", \"cold_seconds\": " << Json(total_cold)
       << ", \"shared_seconds\": " << Json(total_shared)
       << ", \"speedup\": "
       << Json(total_shared > 0 ? total_cold / total_shared : 0.0) << "},\n";
  json << "  \"multi_metric\": {\"metrics\": "
       << JsonStringList(opt.metrics) << ", \"cells\": " << mm.cells
       << ", \"cells_times_metrics\": " << mm.metric_units
       << ", \"subgraph_builds\": " << mm.subgraph_builds
       << ", \"score_groups\": " << mm.score_groups
       << ", \"per_metric_seconds\": " << Json(mm.per_metric_seconds)
       << ", \"shared_seconds\": " << Json(mm.shared_seconds)
       << ", \"subgraph_seconds\": " << Json(mm.subgraph_seconds)
       << ", \"metric_seconds\": " << Json(mm.metric_seconds)
       << ", \"speedup\": " << Json(mm_speedup)
       << ", \"units_per_second_shared\": "
       << Json(mm.shared_seconds > 0
                   ? static_cast<double>(mm.metric_units) / mm.shared_seconds
                   : 0.0)
       << "},\n";
  json << "  \"distance_metrics\": {\"metrics\": "
       << JsonStringList(opt.distance_metrics) << ", \"cells\": " << dm.cells
       << ", \"units\": " << dm.metric_units
       << ", \"subgraph_builds\": " << dm.subgraph_builds
       << ", \"shared_seconds\": " << Json(dm.shared_seconds)
       << ", \"subgraph_seconds\": " << Json(dm.subgraph_seconds)
       << ", \"metric_seconds\": " << Json(dm.metric_seconds)
       << ", \"units_per_second\": "
       << Json(dm.shared_seconds > 0
                   ? static_cast<double>(dm.metric_units) / dm.shared_seconds
                   : 0.0)
       << "}\n";
  json << "}\n";

  std::ofstream out(opt.out, std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot write " << opt.out << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "# wrote " << opt.out << "\n";
  return 0;
}

}  // namespace sparsify::bench

int main(int argc, char** argv) {
  return sparsify::bench::SweepThroughputMain(argc, argv);
}
