#include "src/cli/sparsify_cli.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/cli/args.h"
#include "src/cli/figures.h"
#include "src/cli/metrics.h"
#include "src/cli/store_export.h"
#include "src/engine/resumable_sweep.h"
#include "src/graph/datasets.h"
#include "src/graph/ingest.h"
#include "src/graph/io.h"
#include "src/obs/counters.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/util/cancel.h"
#include "src/util/errors.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/store/result_store.h"
#include "src/util/timer.h"

namespace sparsify::cli {
namespace {

std::vector<double> SplitCsvDoubles(const std::string& s) {
  std::vector<double> parts;
  for (const std::string& p : SplitCsv(s)) {
    parts.push_back(ParseDoubleValue("rates", p));
  }
  return parts;
}

// `--scale` value: a default scale and/or per-dataset overrides, e.g.
// "0.5", "web-Google=0.2", or "0.5,web-Google=0.2,ego-Twitter=0.1". The
// paper's datasets span orders of magnitude, so one global scale either
// starves the small graphs or drowns in the big ones — the `--paper`
// preset relies on the overrides.
struct ScaleSpec {
  double default_scale = 0.5;
  std::map<std::string, double> overrides;  // dataset name -> scale
};

ScaleSpec ParseScaleSpec(const std::string& value) {
  ScaleSpec spec;
  bool have_default = false;
  for (const std::string& part : SplitCsv(value)) {
    auto eq = part.find('=');
    if (eq == std::string::npos) {
      if (have_default) {
        throw std::invalid_argument("--scale lists more than one default "
                                    "scale: '" + value + "'");
      }
      spec.default_scale = ParseDoubleValue("scale", part);
      have_default = true;
    } else {
      std::string name = part.substr(0, eq);
      if (name.empty()) {
        throw std::invalid_argument("--scale override missing a dataset "
                                    "name: '" + part + "'");
      }
      spec.overrides[name] = ParseDoubleValue("scale", part.substr(eq + 1));
    }
  }
  return spec;
}

int Usage() {
  std::cout
      << "usage: sparsify_cli <command> [--key=value ...]\n"
         "\n"
         "  list                       sparsifiers, datasets, metrics, "
         "figures\n"
         "  metrics                    metric registry with descriptions\n"
         "  sparsify   --algo=LD --rate=0.5 --input=g.txt --output=h.txt\n"
         "             [--directed] [--weighted] [--seed=42]\n"
         "  evaluate   --metric=pagerank --input=g.txt --sparsified=h.txt\n"
         "             [--directed] [--weighted] [--seed=42]\n"
         "  sweep      --dataset=ca-AstroPh[,..] --metrics=connectivity[,..]"
         "|all\n"
         "             [--paper] [--algos=RN,LD,..] [--rates=0.1,..]\n"
         "             [--runs=3] [--scale=0.5[,web-Google=0.2,..]]\n"
         "             [--seed=42] [--threads=0] [--csv] [--store=DIR]\n"
         "             [--resume] [--trace=FILE] [--progress]\n"
         "             [--deadline=SECS] [--stage-timeout=SECS]\n"
         "             [--shard=i/N]\n"
         "  profile    (same flags as sweep) run a sweep and print the\n"
         "             per-stage/per-metric breakdown (p50/p95/max,\n"
         "             units/s, pool utilization)\n"
         "  ingest     --input=g.txt [--directed] [--weighted]\n"
         "             [--cache=DIR] [--threads=0]\n"
         "  export     --store=DIR [--format=csv|table] [--dataset=..]\n"
         "             [--metric=..]\n"
         "  ls         --store=DIR\n"
         "  compact    --store=DIR  rewrite the log to one record per\n"
         "             live cell (drops superseded duplicates; atomic)\n"
         "  merge      DIR [DIR ...] -o OUT  fold stores (e.g. the\n"
         "             directories of --shard runs) into OUT,\n"
         "             last-write-wins per cell (atomic)\n"
         "  figure     <id ...> [--scale=f] [--runs=3] [--threads=0]\n"
         "             [--seed=42] [--csv] [--store=DIR] [--resume]\n"
         "             a sweep preset per figure id: same engine, store,\n"
         "             fault policy and exit codes as sweep\n"
         "\n"
         "A multi-metric sweep sparsifies each (sparsifier, rate, run)\n"
         "cell ONCE and evaluates every listed metric on that subgraph.\n"
         "--paper presets the paper's full protocol (all datasets, all\n"
         "metrics, runs=10); explicit flags override it, and --scale\n"
         "accepts per-dataset overrides (--scale=0.5,web-Google=0.2).\n"
         "A sweep with --store appends every completed (cell, metric)\n"
         "unit to its own log segment in the store directory DIR (one\n"
         "flushed JSONL record each); with --resume it first replays the\n"
         "store and schedules only the missing units — resuming with MORE\n"
         "metrics schedules only the new metrics' cells — reproducing the\n"
         "uninterrupted output bit-identically. `ingest` parses a SNAP\n"
         "edge list once, builds the CSR in parallel, and (with\n"
         "--cache=DIR) writes a content-addressed binary cache that later\n"
         "runs load in one bulk read; its dataset key is ingest-<hash>.\n"
         "--trace=FILE exports the run's spans as Chrome trace_event JSON\n"
         "(chrome://tracing / ui.perfetto.dev); --progress prints a ~1s\n"
         "heartbeat to stderr (completed/total units, ETA). Run\n"
         "`sparsify_cli list` for names.\n"
         "\n"
         "Sweeps are error-tolerant: a failing (cell, metric) unit is\n"
         "retried (transient failures, up to 2 extra attempts) or\n"
         "recorded as a typed error record in the store; the rest of the\n"
         "sweep completes, and --resume resubmits exactly the failed\n"
         "units (`figure` runs the same way). --deadline cancels the\n"
         "whole run after SECS (like a signal: in-flight units drain,\n"
         "completed units persist); --stage-timeout (default 300) fails\n"
         "any single stage (reference, scoring, subgraph or a metric\n"
         "unit's attempt) that runs longer than SECS: its units become\n"
         "'deadline' error records naming the stage, and the rest of the\n"
         "sweep completes (`figure` uses the default). SIGINT/SIGTERM\n"
         "cancel the run cooperatively: queued units are skipped,\n"
         "in-flight units drain, and --resume continues bit-identically;\n"
         "a second signal aborts immediately.\n"
         "\n"
         "A store directory has one writer at a time: sweep, compact and\n"
         "merge lock it while they run, and export/ls read it without a\n"
         "lock. --shard=i/N runs shard i of a static N-way split of the\n"
         "grid (whole score groups, so no group is scored twice) into\n"
         "its own --store directory; rerun a crashed shard with --resume,\n"
         "then fold the N directories with `merge` (bit-identical to a\n"
         "single-process run). Exit codes: 0 ok, 1 usage/unclassified\n"
         "error, 2 I/O failure, 3 store held by another writer, 4 corrupt\n"
         "store, 5 permanent unit failures, 6 transient/deadline unit\n"
         "failures only, 7 interrupted by signal, 8 --deadline expired.\n";
  return 1;
}

int CmdMetrics() {
  std::cout << "Metrics (sparsify_cli sweep --metrics=a,b,.. or "
               "--metrics=all):\n";
  for (const auto& [name, metric] : NamedMetrics()) {
    std::printf("  %-18s %-13s %s\n", name.c_str(),
                metric.sampled ? "sampled" : "deterministic",
                metric.description.c_str());
  }
  std::cout << "\nsampled = consumes the per-cell metric RNG stream "
               "(MetricSeed) or the\nreference stream (ReferenceSeed);\n"
               "deterministic = rng-free, unchanged across RNG revisions.\n";
  return 0;
}

int CmdList() {
  std::cout << "Sparsifiers (paper Table 2 + extensions):\n";
  for (const SparsifierInfo& info : AllSparsifierInfos()) {
    std::cout << "  " << info.short_name << "\t" << info.name
              << (info.extension ? "  [extension]" : "") << "\n";
  }
  std::cout << "\nDatasets (synthetic stand-ins for paper Table 3):\n";
  for (const std::string& name : DatasetNames()) {
    std::cout << "  " << name << "\n";
  }
  std::cout << "\nMetrics (details: sparsify_cli metrics):\n";
  for (const std::string& name : MetricNames()) {
    std::cout << "  " << name << "\n";
  }
  std::cout << "\nFigures (sparsify_cli figure <id>):\n";
  for (const FigureSpec& f : AllFigures()) {
    std::cout << "  " << f.id << "\t" << f.title << "\n";
  }
  return 0;
}

Graph LoadInput(const Args& args, const std::string& key) {
  return ReadEdgeList(args.Get(key), args.Has("directed"),
                      args.Has("weighted"));
}

int CmdSparsify(const Args& args) {
  if (!args.Has("algo") || !args.Has("input") || !args.Has("output")) {
    std::cerr << "sparsify requires --algo, --input, --output\n";
    return 1;
  }
  Graph g = LoadInput(args, "input");
  auto sparsifier = CreateSparsifier(args.Get("algo"));
  const SparsifierInfo& info = sparsifier->Info();
  if (g.IsDirected() && !info.supports_directed) {
    std::cerr << "note: " << info.name
              << " needs undirected input; symmetrizing (paper sec 3.1)\n";
    g = g.Symmetrized();
  }
  Rng rng(args.GetUint64("seed", 42));
  Timer timer;
  Graph h = sparsifier->Sparsify(g, args.GetDouble("rate", 0.5), rng);
  std::cout << "sparsified in " << timer.Seconds() << " s: " << h.Summary()
            << " (achieved prune rate "
            << Sparsifier::AchievedPruneRate(g, h) << ")\n";
  WriteEdgeList(h, args.Get("output"));
  return 0;
}

int CmdEvaluate(const Args& args) {
  if (!args.Has("metric") || !args.Has("input") || !args.Has("sparsified")) {
    std::cerr << "evaluate requires --metric, --input, --sparsified\n";
    return 1;
  }
  const BatchMetric& metric = FindMetric(args.Get("metric"));
  Graph g = LoadInput(args, "input");
  Graph h = LoadInput(args, "sparsified");
  Rng rng(args.GetUint64("seed", 42));
  std::cout << args.Get("metric") << " = " << EvaluateMetric(metric, g, h, rng)
            << "\n";
  return 0;
}

int CmdIngest(const Args& args) {
  if (!args.Has("input")) {
    std::cerr << "ingest requires --input=FILE (SNAP edge list or .spgc "
                 "cache)\n";
    return 1;
  }
  IngestOptions opt;
  opt.directed = args.Has("directed");
  opt.weighted = args.Has("weighted");
  opt.cache_dir = args.Get("cache");
  ThreadPool pool(args.GetInt("threads", 0));
  opt.pool = &pool;
  Timer timer;
  IngestResult result = IngestGraph(args.Get("input"), opt);
  double seconds = timer.Seconds();
  std::cout << "ingested " << args.Get("input") << " in " << seconds
            << " s (" << (result.from_cache ? "binary cache" : "text parse")
            << ")\n"
            << "  graph:        " << result.graph.Summary() << "\n"
            << "  content hash: " << result.content_hash << "\n"
            << "  dataset key:  " << IngestDatasetKey(result.graph) << "\n";
  if (!result.cache_file.empty()) {
    std::cout << "  cache file:   " << result.cache_file << "\n";
  } else {
    std::cout << "  cache file:   (none; pass --cache=DIR to enable)\n";
  }
  return 0;
}

// --runs and --seed, the grid flags every sweep command reads.
SweepConfig GridFlags(const Args& args, int default_runs) {
  SweepConfig config;
  config.runs_nondeterministic = args.GetInt("runs", default_runs);
  if (config.runs_nondeterministic < 1) {
    throw std::invalid_argument("--runs must be >= 1");
  }
  config.seed = args.GetUint64("seed", 42);
  return config;
}

// A robustness knob in seconds, 0 when absent. Finite and strictly
// positive: zero or negative is a config mistake, not "off" (omit the
// flag for off).
double SecondsFlag(const Args& args, const std::string& key) {
  double seconds = args.GetDouble(key, 0);
  if (args.Has(key) && !(std::isfinite(seconds) && seconds > 0)) {
    throw std::invalid_argument("--" + key + " must be a finite number of "
                                "seconds > 0");
  }
  return seconds;
}

// --shard=i/N: run shard i of a static N-way split of the grid into its
// own store directory (see ShardSpec).
ShardSpec ShardFlag(const Args& args) {
  ShardSpec shard;
  if (!args.Has("shard")) return shard;
  const std::string spec = args.Get("shard");
  const size_t slash = spec.find('/');
  bool ok = slash != std::string::npos && slash > 0 && slash + 1 < spec.size();
  if (ok) {
    try {
      shard.index = static_cast<size_t>(
          ParseUint64Value("shard", spec.substr(0, slash)));
      shard.total = static_cast<size_t>(
          ParseUint64Value("shard", spec.substr(slash + 1)));
    } catch (const std::invalid_argument&) {
      ok = false;
    }
  }
  if (!ok || shard.total == 0 || shard.index >= shard.total) {
    throw std::invalid_argument(
        "--shard expects i/N with 0 <= i < N, got '" + spec + "'");
  }
  if (!args.Has("store")) {
    throw std::invalid_argument("--shard requires --store (each shard "
                                "writes its own store directory)");
  }
  return shard;
}

// The --progress heartbeat of one dataset's sweep: a line on stderr about
// once a second. Fires on worker threads; the CAS on the last-print time
// elects one printer per interval. The final unit always prints, so a
// finished sweep never ends mid-heartbeat.
ResumableSweep::ProgressFn Heartbeat(const std::string& dataset_key) {
  auto started = Timer::Now();
  auto last_print = std::make_shared<std::atomic<int64_t>>(0);
  return [started, last_print, dataset_key](size_t done, size_t submitted) {
    int64_t now_ns = Timer::NowNanos();
    if (done < submitted) {
      int64_t prev = last_print->load(std::memory_order_relaxed);
      if (now_ns - prev < 1'000'000'000) return;
      if (!last_print->compare_exchange_strong(prev, now_ns)) return;
    }
    double elapsed = Timer::SecondsBetween(started, Timer::Now());
    double rate = elapsed > 0 ? static_cast<double>(done) / elapsed : 0;
    double eta = rate > 0 ? static_cast<double>(submitted - done) / rate : 0;
    char line[192];
    std::snprintf(line, sizeof(line),
                  "# progress %s: %zu/%zu units (%.1f units/s, ETA %.1fs)\n",
                  dataset_key.c_str(), done, submitted, rate, eta);
    std::cerr << line;
  };
}

// One job of the sweep driver: a dataset at a scale, the grid, and the
// metrics to sweep on it. `sweep` and `profile` make one job per dataset,
// `figure` one per figure id.
struct SweepJob {
  std::string dataset;  // datasets.h name
  double scale = 0.5;
  SweepConfig config;
  std::vector<std::string> metrics;  // names FigureMetric resolves
};

// What one job's sweep produced, handed to the command's printer.
struct SweepOutcome {
  const Dataset& dataset;
  const std::string& dataset_key;  // DatasetCellName(dataset, scale)
  const ResumableSweepStats& stats;
  double seconds;  // the job's wall time
  const ShardSpec& shard;
  const std::vector<MetricSweepSeries>& series;  // in the job's order
};
using SweepPrinter = std::function<void(size_t job, const SweepOutcome&)>;

// The one driver behind `sweep`, `profile` and `figure`. It owns the
// engine, the store, the run's cancel token (signals, --deadline), the
// stage timeout, tracing, progress and the exit code ladder; the command
// only chooses the jobs and prints each one's outcome. `profile_mode`
// forces span tracing on and prints the per-stage breakdown after the
// last job.
int RunSweepJobs(const Args& args, const std::string& cmd_name,
                 bool profile_mode, const std::vector<SweepJob>& jobs,
                 const SweepPrinter& print) {
  const bool resume = args.Has("resume");
  const std::string trace_path = args.Get("trace");
  // Spans are recorded whenever the profile table needs them or a trace
  // file was requested; otherwise the span sites stay one relaxed load.
  const bool tracing = profile_mode || !trace_path.empty();
  const double run_deadline = SecondsFlag(args, "deadline");
  // Every stage's budget; `figure` takes no flag and keeps the default.
  const double stage_timeout = args.Has("stage-timeout")
                                   ? SecondsFlag(args, "stage-timeout")
                                   : 300.0;
  const ShardSpec shard = ShardFlag(args);

  BatchRunner runner(args.GetInt("threads", 0));
  if (profile_mode) {
    // Scope the registry and pool counters to this run so the breakdown
    // reports this sweep, not process history.
    obs::ResetAllStats();
    runner.ResetPoolStats();
  }
  // Whole-run cancellation: one token shared by the signal bridge, the
  // --deadline, and (as parent) every stage's own token.
  // Installed before the store opens so a signal during a long replay
  // still drains cleanly; a second signal aborts immediately.
  CancelToken run_token;
  if (run_deadline > 0) run_token.SetDeadlineAfter(run_deadline);
  InstallSignalCancel(&run_token);
  struct CancelGuard {
    ~CancelGuard() { ClearSignalCancel(); }
  } cancel_guard;
  // Start before the store opens so its replay span is captured too.
  if (tracing) obs::StartTracing();
  std::unique_ptr<ResultStore> store;
  if (args.Has("store")) {
    store = std::make_unique<ResultStore>(args.Get("store"));
  }

  // Each dataset loads once, however many jobs sweep it, and is freed
  // after the last of them.
  std::map<std::string, size_t> last_use;  // dataset key -> job index
  for (size_t j = 0; j < jobs.size(); ++j) {
    last_use[DatasetCellName(jobs[j].dataset, jobs[j].scale)] = j;
  }
  std::map<std::string, Dataset> loaded;

  size_t total_submitted_units = 0;
  BatchRunStats totals;
  Timer run_timer;
  for (size_t j = 0; j < jobs.size(); ++j) {
    // A tripped run token (signal or --deadline) skips every remaining
    // job; the one in flight already drained inside RunMulti.
    if (run_token.Cancelled()) break;
    const SweepJob& job = jobs[j];
    const std::string dataset_key = DatasetCellName(job.dataset, job.scale);
    auto [it, inserted] = loaded.try_emplace(dataset_key);
    if (inserted) it->second = LoadDatasetScaled(job.dataset, job.scale);
    const Dataset& d = it->second;
    std::vector<BatchMetric> metrics;
    for (const std::string& name : job.metrics) {
      metrics.push_back(FigureMetric(name, d));
    }
    // One multi-metric sweep per job: each (sparsifier, rate, run) cell is
    // sparsified once and every missing metric evaluates on that one
    // subgraph.
    ResumableSweep sweep(runner, store.get());
    sweep.set_reuse_cached(resume);
    // A failing (cell, metric) unit becomes a typed error record
    // (transient failures retry first) and the rest of the run completes;
    // the exit code reports the failure class and a later --resume
    // resubmits exactly the failed units.
    sweep.set_cancel_token(&run_token);
    sweep.set_stage_timeout(stage_timeout);
    sweep.set_shard(shard);
    if (args.Has("progress")) sweep.set_progress(Heartbeat(dataset_key));
    ResumableSweepStats stats;
    Timer sweep_timer;
    std::vector<MetricSweepSeries> series =
        sweep.RunMulti(d.graph, dataset_key, metrics, job.config, &stats);
    total_submitted_units += stats.submitted_cells;
    totals += stats;
    print(j, {d, dataset_key, stats, sweep_timer.Seconds(), shard, series});
    if (last_use[dataset_key] == j) loaded.erase(it);
  }
  double run_seconds = run_timer.Seconds();

  if (tracing) {
    obs::StopTracing();
    std::vector<obs::TraceEvent> events = obs::DrainTrace();
    if (!trace_path.empty()) {
      if (obs::WriteChromeTraceFile(events, trace_path)) {
        std::cerr << "# trace: " << events.size() << " spans -> "
                  << trace_path << " (load in chrome://tracing or "
                  << "ui.perfetto.dev)\n";
      } else {
        std::cerr << "error: cannot write trace file " << trace_path << "\n";
        return 1;
      }
    }
    if (profile_mode) {
      obs::ProfileSummary summary;
      summary.wall_seconds = run_seconds;
      summary.threads = static_cast<size_t>(runner.NumThreads());
      summary.pool_busy_seconds = runner.PoolStats().busy_seconds;
      PrintProfile(obs::BuildProfile(events), summary, std::cout);
      // Cross-check against the scheduler: one metric_unit span per
      // submitted (cell x metric) unit, across every dataset swept.
      size_t unit_spans = 0;
      for (const obs::TraceEvent& ev : events) {
        if (std::string_view(ev.name) == "metric_unit") ++unit_spans;
      }
      std::cout << "# profile check: metric_unit spans=" << unit_spans
                << " submitted units=" << total_submitted_units
                << (unit_spans == total_submitted_units ? " (match)"
                                                        : " (MISMATCH)")
                << "\n";
    }
  }
  // A cancelled run dominates every other exit class: what completed is
  // persisted, nothing was recorded for the rest, and --resume picks up
  // exactly where this run stopped.
  if (run_token.Cancelled()) {
    const bool signalled = SignalCancelSigno() != 0;
    std::cerr << "# " << cmd_name
              << (signalled ? " interrupted by signal"
                            : " stopped at --deadline")
              << ": " << totals.cancelled_units
              << " unit(s) cancelled; completed units"
              << (store ? " are persisted -- re-run with --resume to continue"
                        : " were printed (no --store: nothing persisted)")
              << "\n";
    return signalled ? kExitInterrupted : kExitDeadline;
  }
  if (totals.failed_units > 0) {
    std::cerr << "# " << cmd_name << " finished with " << totals.failed_units
              << " failed unit(s) (" << totals.transient_failed_units
              << " transient, " << totals.deadline_exceeded_units
              << " deadline); recorded as error records"
              << (store ? "" : " (no --store: failures not persisted)")
              << " -- re-run with --store/--resume to retry just those\n";
    // Permanent failures dominate the exit code: they will not clear on
    // their own, while a transient or deadline-exceeded unit may succeed
    // if simply re-run (the latter with a larger --stage-timeout).
    return totals.failed_units > totals.transient_failed_units +
                                     totals.deadline_exceeded_units
               ? kExitUnitFailures
               : kExitTransientFailures;
  }
  return 0;
}

// `sweep` and `profile`: one job per dataset, all on the same grid and
// metrics. The profile mode runs the exact same sweep (same seeds, same
// store behaviour — output values are byte-identical) with span tracing
// forced on, suppresses the per-metric series tables, and prints the
// per-stage breakdown instead.
int CmdSweep(const Args& args, bool profile_mode) {
  const char* cmd_name = profile_mode ? "profile" : "sweep";
  bool paper = args.Has("paper");
  if (args.Has("metric") && args.Has("metrics")) {
    std::cerr << cmd_name << " takes either --metric or --metrics, not both\n";
    return 1;
  }

  // --paper presets the paper's full protocol; explicit flags override it.
  std::vector<std::string> datasets;
  if (args.Has("dataset")) {
    datasets = SplitCsv(args.Get("dataset"));
  } else if (paper) {
    datasets = DatasetNames();
  } else {
    std::cerr << cmd_name
              << " requires --dataset (or --paper; comma-separated "
                 "lists accepted)\n";
    return 1;
  }
  std::string metric_arg =
      args.Has("metrics") ? args.Get("metrics") : args.Get("metric");
  std::vector<std::string> metric_names;
  if (metric_arg == "all" || (metric_arg.empty() && paper)) {
    metric_names = MetricNames();
  } else if (!metric_arg.empty()) {
    metric_names = SplitCsv(metric_arg);
  } else {
    std::cerr << cmd_name
              << " requires --metrics (or --paper; comma-separated "
                 "lists accepted, or --metrics=all)\n";
    return 1;
  }
  // Resolve every metric up front: an unknown name aborts with the
  // registry listed before any work is scheduled.
  std::string joined_metrics;
  for (const std::string& name : metric_names) {
    FindMetric(name);
    joined_metrics += joined_metrics.empty() ? name : "," + name;
  }

  ScaleSpec scales = ParseScaleSpec(args.Get("scale", "0.5"));
  for (const auto& [name, scale] : scales.overrides) {
    if (std::find(datasets.begin(), datasets.end(), name) ==
        datasets.end()) {
      std::cerr << "error: --scale override for '" << name
                << "', which is not in this sweep's dataset list\n";
      return 1;
    }
  }
  SweepConfig config = GridFlags(args, paper ? 10 : 3);
  if (args.Has("algos")) config.sparsifiers = SplitCsv(args.Get("algos"));
  if (args.Has("rates")) {
    config.prune_rates = SplitCsvDoubles(args.Get("rates"));
  }
  std::vector<SweepJob> jobs;
  for (const std::string& name : datasets) {
    auto it = scales.overrides.find(name);
    jobs.push_back({name,
                    it != scales.overrides.end() ? it->second
                                                 : scales.default_scale,
                    config, metric_names});
  }

  const bool csv = args.Has("csv");
  return RunSweepJobs(args, cmd_name, profile_mode, jobs,
                      [&](size_t, const SweepOutcome& o) {
    const ResumableSweepStats& stats = o.stats;
    // Wall clock, throughput, and the score/subgraph/metric time split in
    // the banner make resumed-vs-cold and shared-vs-rebuilt speedups
    // visible without a profiler. The rate counts only SUBMITTED units:
    // cells served from the store are lookups, not work, and a fully
    // resumed sweep reports "all cached" instead of a meaningless rate.
    // Formatted into a buffer so the stream's float formatting state
    // stays untouched.
    char timing[144];
    if (stats.submitted_cells > 0) {
      std::snprintf(timing, sizeof(timing),
                    "%.1fs, %.1f units/s (score %.1fs, reference %.1fs, "
                    "subgraph %.1fs, metric %.1fs)",
                    o.seconds,
                    o.seconds > 0
                        ? static_cast<double>(stats.submitted_cells) /
                              o.seconds
                        : 0.0,
                    stats.score_seconds, stats.reference_seconds,
                    stats.subgraph_seconds, stats.metric_seconds);
    } else {
      std::snprintf(timing, sizeof(timing), "%.1fs, all units cached",
                    o.seconds);
    }
    std::cout << "# sweep " << o.dataset_key << " metrics=" << joined_metrics
              << ": total=" << stats.total_cells
              << " cached=" << stats.cached_cells
              << " submitted=" << stats.submitted_cells
              << " subgraph_builds=" << stats.subgraph_builds
              << " score_groups=" << stats.score_groups
              << " reference_stages=" << stats.reference_stages;
    if (o.shard.total > 1) {
      std::cout << " shard=" << o.shard.index << "/" << o.shard.total;
    }
    if (stats.failed_units > 0 || stats.retried_units > 0 ||
        stats.cancelled_units > 0) {
      // ok / failed / retried accounting, only when there is anything to
      // report (the usual all-green banner stays byte-stable).
      std::cout << " ok="
                << (stats.submitted_cells - stats.failed_units -
                    stats.cancelled_units)
                << " failed=" << stats.failed_units
                << " retried=" << stats.retried_units;
      if (stats.deadline_exceeded_units > 0) {
        std::cout << " deadline_exceeded=" << stats.deadline_exceeded_units;
      }
      if (stats.cancelled_units > 0) {
        std::cout << " cancelled=" << stats.cancelled_units;
      }
    }
    std::cout << ", " << timing << "\n";
    if (profile_mode) return;  // breakdown table instead of series
    for (const MetricSweepSeries& m : o.series) {
      std::string title = m.metric + " on " + o.dataset_key;
      if (csv) {
        PrintSeriesCsv(std::cout, title, m.series);
      } else {
        PrintSeriesTable(std::cout, title, m.metric, m.series);
      }
    }
  });
}


int CmdExport(const Args& args) {
  if (!args.Has("store")) {
    std::cerr << "export requires --store=DIR\n";
    return 1;
  }
  std::string format = args.Get("format", "csv");
  if (format != "csv" && format != "table") {
    std::cerr << "unknown --format '" << format << "' (csv or table)\n";
    return 1;
  }
  // Read-only snapshot: no lock, nothing mutated — a live sweep's store
  // can be exported mid-run.
  ResultStoreOptions snapshot;
  snapshot.read_only = true;
  ResultStore store(args.Get("store"), snapshot);
  ExportStore(store, std::cout, format == "csv", args.Get("dataset"),
              args.Get("metric"));
  return 0;
}

int CmdLs(const Args& args) {
  if (!args.Has("store")) {
    std::cerr << "ls requires --store=DIR\n";
    return 1;
  }
  ResultStoreOptions snapshot;
  snapshot.read_only = true;
  ResultStore store(args.Get("store"), snapshot);
  SummarizeStore(store, std::cout);
  return 0;
}

int CmdCompact(const Args& args) {
  if (!args.Has("store")) {
    std::cerr << "compact requires --store=DIR\n";
    return 1;
  }
  ResultStore store(args.Get("store"));
  CompactStats stats = store.Compact();
  std::cout << "compacted " << store.Dir() << ": " << stats.records_before
            << " -> " << stats.records_after << " records, "
            << stats.bytes_before << " -> " << stats.bytes_after
            << " bytes\n";
  if (store.ErrorCount() > 0) {
    std::cout << "  kept " << store.ErrorCount()
              << " error record(s) (unresolved failed units; a resumed "
                 "sweep retries them)\n";
  }
  return 0;
}

int CmdMerge(const Args& args) {
  // `merge A B -o OUT`: "-o" is not a --flag, so it and the directory
  // after it arrive as positionals; --out=DIR works too.
  std::vector<std::string> inputs;
  std::string out_dir = args.Get("out");
  for (size_t i = 0; i < args.positional.size(); ++i) {
    const std::string& p = args.positional[i];
    if (p == "-o") {
      if (i + 1 >= args.positional.size()) {
        std::cerr << "merge: -o requires an output store directory\n";
        return 1;
      }
      out_dir = args.positional[++i];
    } else {
      inputs.push_back(p);
    }
  }
  if (out_dir.empty() || inputs.empty()) {
    std::cerr << "usage: sparsify_cli merge DIR [DIR ...] -o OUT\n";
    return 1;
  }
  for (const std::string& dir : inputs) {
    if (!std::filesystem::is_directory(dir)) {
      std::cerr << "merge: input store directory not found: " << dir << "\n";
      return kExitIo;
    }
  }

  // The output opens WRITABLE first: it throws StoreLockHeldError ->
  // exit 3 while a sweep is running there.
  ResultStore out(out_dir);

  // Fold order: OUT's own cells first, then each input in argv order, so
  // later inputs win ties — the store's replay rule, under which a success
  // always beats an error record for the same key: equal keys compute
  // bit-identical values, so any success IS the value and the error just
  // records a worker's failed attempt elsewhere.
  std::vector<std::unique_ptr<ResultStore>> snapshots;
  std::vector<const ResultStore*> stores;
  size_t input_records = 0;
  for (const std::string& dir : inputs) {
    ResultStoreOptions snapshot;
    snapshot.read_only = true;
    snapshots.push_back(std::make_unique<ResultStore>(dir, snapshot));
    stores.push_back(snapshots.back().get());
    input_records += snapshots.back()->Size();
  }
  out.Merge(stores);

  std::cout << "merged " << inputs.size() << " store(s), " << input_records
            << " cell(s) -> " << out.Dir() << ": " << out.Size()
            << " cell(s)";
  if (out.ErrorCount() > 0) {
    std::cout << " (" << out.ErrorCount()
              << " unresolved error record(s); a resumed sweep retries "
                 "them)";
  }
  std::cout << "\n";
  return 0;
}

// `figure <id ...>`: a preset of the sweep driver. Each id is one job (the
// figure's dataset at --scale or else its default scale, its sparsifiers,
// rates and metric), printed as the figure's table or CSV.
int CmdFigure(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "figure requires at least one figure id (see "
                 "`sparsify_cli list`)\n";
    return 1;
  }
  std::vector<const FigureSpec*> specs;
  for (const std::string& id : args.positional) {
    const FigureSpec* spec = FindFigure(id);
    if (spec == nullptr) {
      std::cerr << "unknown figure '" << id << "' (known:";
      for (const FigureSpec& f : AllFigures()) std::cerr << " " << f.id;
      std::cerr << ")\n";
      return 1;
    }
    specs.push_back(spec);
  }
  const SweepConfig grid = GridFlags(args, 3);
  std::vector<SweepJob> jobs;
  for (const FigureSpec* spec : specs) {
    SweepJob job{spec->dataset, args.GetDouble("scale", spec->default_scale),
                 grid, {spec->metric}};
    job.config.sparsifiers = spec->sparsifiers;
    if (!spec->rates.empty()) job.config.prune_rates = spec->rates;
    jobs.push_back(std::move(job));
  }

  const bool csv = args.Has("csv");
  std::string last_announced;  // figures sharing a dataset announce it once
  return RunSweepJobs(args, "figure", /*profile_mode=*/false, jobs,
                      [&](size_t j, const SweepOutcome& o) {
    const FigureSpec& spec = *specs[j];
    if (o.dataset_key != last_announced) {
      std::cout << "Dataset: " << o.dataset.info.name << " ("
                << o.dataset.graph.Summary() << ")\n\n";
      last_announced = o.dataset_key;
    }
    if (args.Has("store")) {
      std::cout << "# store " << args.Get("store")
                << ": total=" << o.stats.total_cells
                << " cached=" << o.stats.cached_cells
                << " submitted=" << o.stats.submitted_cells << "\n";
    }
    const std::vector<SweepSeries>& series = o.series[0].series;
    if (csv) {
      PrintSeriesCsv(std::cout, spec.title, series);
      return;
    }
    std::optional<double> reference, baseline;
    if (spec.reference) reference = spec.reference(o.dataset);
    if (spec.baseline) baseline = spec.baseline(o.dataset);
    PrintSeriesTable(std::cout, spec.title, spec.value_name, series,
                     reference, baseline);
  });
}

const std::map<std::string, std::set<std::string>>& AllowedKeys() {
  static const std::map<std::string, std::set<std::string>> allowed = {
      {"list", {}},
      {"metrics", {}},
      {"sparsify",
       {"algo", "rate", "input", "output", "directed", "weighted", "seed"}},
      {"evaluate",
       {"metric", "input", "sparsified", "directed", "weighted", "seed"}},
      {"sweep",
       {"dataset", "metric", "metrics", "paper", "algos", "rates", "runs",
        "scale", "seed", "threads", "csv", "store", "resume", "trace",
        "progress", "deadline", "stage-timeout", "shard"}},
      {"profile",
       {"dataset", "metric", "metrics", "paper", "algos", "rates", "runs",
        "scale", "seed", "threads", "csv", "store", "resume", "trace",
        "progress", "deadline", "stage-timeout", "shard"}},
      {"ingest", {"input", "directed", "weighted", "cache", "threads"}},
      {"export", {"store", "format", "dataset", "metric"}},
      {"ls", {"store"}},
      {"compact", {"store"}},
      {"merge", {"out"}},
      {"figure",
       {"scale", "runs", "threads", "seed", "csv", "store", "resume"}},
  };
  return allowed;
}

}  // namespace

int RunSparsifyCli(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") {
    Usage();
    return 0;
  }
  auto allowed_it = AllowedKeys().find(cmd);
  if (allowed_it == AllowedKeys().end()) {
    std::cerr << "unknown command '" << cmd << "'\n";
    return Usage();
  }
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, 2, allowed_it->second, &args, &error)) {
    std::cerr << "error: " << error << "\n";
    return Usage();
  }
  try {
    // Torture-harness hook: arm fault injection from the environment
    // before any command touches the store or the engine. A malformed
    // spec aborts loudly (invalid_argument -> usage) instead of silently
    // running un-faulted.
    fail::ArmFromEnv();
    if (cmd == "list") return CmdList();
    if (cmd == "metrics") return CmdMetrics();
    if (cmd == "sparsify") return CmdSparsify(args);
    if (cmd == "evaluate") return CmdEvaluate(args);
    if (cmd == "sweep") return CmdSweep(args, /*profile_mode=*/false);
    if (cmd == "profile") return CmdSweep(args, /*profile_mode=*/true);
    if (cmd == "ingest") return CmdIngest(args);
    if (cmd == "export") return CmdExport(args);
    if (cmd == "ls") return CmdLs(args);
    if (cmd == "compact") return CmdCompact(args);
    if (cmd == "merge") return CmdMerge(args);
    if (cmd == "figure") return CmdFigure(args);
  } catch (const StoreLockHeldError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitLockHeld;
  } catch (const StoreCorruptError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitCorruptStore;
  } catch (const DeadlineExceededError& e) {
    // Safety net for cancellation escaping the engine; sweeps normally
    // classify and exit via RunSweepJobs.
    std::cerr << "error: " << e.what() << "\n";
    return kExitDeadline;
  } catch (const CancelledError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitInterrupted;
  } catch (const IoError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitIo;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  }
  return Usage();
}

}  // namespace sparsify::cli
