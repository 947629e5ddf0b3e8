// Shared helpers for the figure-regeneration benches.
//
// Every bench binary accepts:
//   --scale=<f>   dataset size multiplier (default per bench; smaller =
//                 faster); datasets are synthetic stand-ins, see DESIGN.md
//   --runs=<n>    runs per non-deterministic sparsifier (paper: 10)
//   --threads=<n> worker threads for the batch engine (default: hardware
//                 concurrency; output is identical at any thread count)
//   --seed=<n>    master seed of the sweep grid (default 42)
//   --csv         emit CSV rows instead of pivot tables
//   --store=<dir> persist every completed cell to store directory <dir>
//   --resume      consult the store first; schedule only missing cells
//
// Unknown --flags are an error, not a silent no-op: a typo like
// `--thread=8` must abort instead of quietly running a default config.
#ifndef SPARSIFY_BENCH_BENCH_COMMON_H_
#define SPARSIFY_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/figures.h"
#include "src/engine/batch_runner.h"
#include "src/engine/resumable_sweep.h"
#include "src/eval/experiment.h"
#include "src/graph/datasets.h"
#include "src/obs/trace.h"

namespace sparsify::bench {

/// Attribution `meta` object for the BENCH_*.json emitters, so the perf
/// trajectory is attributable run-to-run. Environment-passed fields (CI
/// sets SPARSIFY_GIT_REV to the commit sha and SPARSIFY_BENCH_TIMESTAMP
/// to an ISO-8601 UTC stamp) default to "unknown" locally — the bench
/// itself never reads a clock or shells out to git, keeping its output a
/// pure function of inputs + environment.
inline std::string BenchMetaJson(int threads, const std::string& datasets) {
  auto escape = [](const char* s) {
    std::string out;
    for (; s != nullptr && *s != '\0'; ++s) {
      if (*s == '"' || *s == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(*s) >= 0x20) out.push_back(*s);
    }
    return out;
  };
  std::ostringstream meta;
  meta << "{\"threads\": " << threads << ", \"git_rev\": \""
       << escape(std::getenv("SPARSIFY_GIT_REV")) << "\", \"timestamp\": \""
       << escape(std::getenv("SPARSIFY_BENCH_TIMESTAMP"))
       << "\", \"datasets\": \"" << escape(datasets.c_str()) << "\"}";
  return meta.str();
}

/// Shared --trace=FILE handling: arms the span tracer for the bench run
/// and writes the drained spans as Chrome trace JSON on destruction.
/// Inert (one relaxed load per span site) when the path is empty.
class BenchTraceScope {
 public:
  explicit BenchTraceScope(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) obs::StartTracing();
  }
  ~BenchTraceScope() {
    if (path_.empty()) return;
    obs::StopTracing();
    std::vector<obs::TraceEvent> events = obs::DrainTrace();
    if (obs::WriteChromeTraceFile(events, path_)) {
      std::cout << "# trace: " << events.size() << " spans -> " << path_
                << "\n";
    } else {
      std::cerr << "error: cannot write trace file " << path_ << "\n";
    }
  }

  BenchTraceScope(const BenchTraceScope&) = delete;
  BenchTraceScope& operator=(const BenchTraceScope&) = delete;

 private:
  std::string path_;
};

struct BenchOptions {
  double scale = 0.5;
  int runs = 3;
  int threads = 0;  // <= 0 selects hardware concurrency
  uint64_t seed = 42;
  bool csv = false;
  std::string store;  // empty = no persistence
  bool resume = false;
  std::string trace;  // empty = spans stay disabled
};

inline void PrintBenchUsage(std::ostream& os) {
  os << "usage: bench [--scale=f] [--runs=n] [--threads=n] [--seed=n] "
        "[--csv] [--store=dir] [--resume] [--trace=file]\n";
}

/// Strict numeric flag values: `--runs=3x` or `--scale=abc` must abort,
/// not silently run with 0 (same discipline as unknown flag names).
inline double ParseDoubleFlag(const char* value, const char* flag) {
  char* end = nullptr;
  double v = std::strtod(value, &end);
  if (end == value || *end != '\0') {
    std::cerr << "error: invalid number for " << flag << ": '" << value
              << "'\n";
    std::exit(2);
  }
  return v;
}

inline long ParseIntFlag(const char* value, const char* flag) {
  char* end = nullptr;
  long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    std::cerr << "error: invalid integer for " << flag << ": '" << value
              << "'\n";
    std::exit(2);
  }
  return v;
}

inline uint64_t ParseUint64Flag(const char* value, const char* flag) {
  char* end = nullptr;
  uint64_t v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || value[0] == '-') {
    std::cerr << "error: invalid integer for " << flag << ": '" << value
              << "'\n";
    std::exit(2);
  }
  return v;
}

/// Splits a comma-separated flag value; empty tokens are dropped.
inline std::vector<std::string> SplitCsvFlag(const std::string& s) {
  std::vector<std::string> parts;
  std::istringstream ss(s);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

inline BenchOptions ParseOptions(int argc, char** argv,
                                 double default_scale = 0.5,
                                 int default_runs = 3) {
  BenchOptions opt;
  opt.scale = default_scale;
  opt.runs = default_runs;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      opt.scale = ParseDoubleFlag(arg.c_str() + 8, "--scale");
    } else if (arg.rfind("--runs=", 0) == 0) {
      opt.runs = static_cast<int>(ParseIntFlag(arg.c_str() + 7, "--runs"));
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.threads =
          static_cast<int>(ParseIntFlag(arg.c_str() + 10, "--threads"));
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = ParseUint64Flag(arg.c_str() + 7, "--seed");
    } else if (arg.rfind("--store=", 0) == 0) {
      opt.store = arg.substr(8);
    } else if (arg.rfind("--trace=", 0) == 0) {
      opt.trace = arg.substr(8);
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--help") {
      PrintBenchUsage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "error: unknown option '" << arg << "'\n";
      PrintBenchUsage(std::cerr);
      std::exit(2);
    }
  }
  return opt;
}

/// Runs one figure's sweep and prints it in the requested format. Used by
/// benches whose metrics need bench-local state (e.g. the GNN training
/// protocol); registry figures go through FigureBenchMain instead.
inline void RunFigure(const std::string& title, const std::string& value_name,
                      const Graph& g, const std::vector<std::string>& sparsifiers,
                      const BenchOptions& opt, const MetricFn& metric,
                      std::optional<double> reference = std::nullopt,
                      std::vector<double> rates = {0.1, 0.2, 0.3, 0.4, 0.5,
                                                   0.6, 0.7, 0.8, 0.9}) {
  SweepConfig config;
  config.sparsifiers = sparsifiers;
  config.prune_rates = std::move(rates);
  config.runs_nondeterministic = opt.runs;
  config.seed = opt.seed;
  // One engine per bench process (figures run several sweeps and would
  // otherwise pay pool setup/teardown for each); sized by the first call's
  // --threads, which is constant within a bench run.
  static BatchRunner runner(opt.threads);
  // No store, and empty dataset/metric names in the unit seeds: the
  // streams these benches have always drawn.
  ResumableSweep sweep(runner, nullptr);
  std::vector<SweepSeries> series =
      sweep.RunMulti(g, "", {SweepMetric{"", metric}}, config)[0].series;
  if (opt.csv) {
    PrintSeriesCsv(std::cout, title, series);
  } else {
    PrintSeriesTable(std::cout, title, value_name, series, reference);
  }
}

/// Main body of the thin per-figure bench wrappers: parses the standard
/// bench flags and runs the listed registry figures (src/cli/figures.h)
/// through the resumable sweep engine. --scale defaults to each figure's
/// own default, so converted benches keep their historical sizing.
inline int FigureBenchMain(int argc, char** argv,
                           const std::vector<std::string>& figure_ids) {
  BenchOptions opt = ParseOptions(argc, argv, /*default_scale=*/0.0);
  cli::FigureRunOptions fopt;
  fopt.scale = opt.scale;
  fopt.runs = opt.runs;
  fopt.threads = opt.threads;
  fopt.seed = opt.seed;
  fopt.csv = opt.csv;
  fopt.store_dir = opt.store;
  fopt.resume = opt.resume;
  return cli::RunFigures(figure_ids, fopt, std::cout);
}

}  // namespace sparsify::bench

#endif  // SPARSIFY_BENCH_BENCH_COMMON_H_
