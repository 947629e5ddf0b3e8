// Observability layer: run stats, span tracer and its Chrome-trace
// export, pool busy time, progress callbacks, and — the contract that
// lets the instrumentation stay always-on — proof that none of it
// perturbs sweep output (thread-count-independent stage counts,
// byte-identical CSV with tracing on vs off).
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/cli/store_export.h"
#include "src/engine/batch_runner.h"
#include "src/engine/resumable_sweep.h"
#include "src/graph/datasets.h"
#include "src/metrics/basic.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON validator — enough of RFC 8259 to certify the trace
// writer's output (objects, arrays, strings with escapes, numbers,
// true/false/null). Returns false on the first syntax error.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') return ++pos_, true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw ctrl
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(s_[pos_])) return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) ++pos_;
    }
    return pos_ > start && std::isdigit(s_[pos_ - 1]);
  }

  bool Literal(const std::string& lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(s_[pos_])) ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

size_t CountOccurrences(const std::string& text, const std::string& pat) {
  size_t n = 0;
  for (size_t at = text.find(pat); at != std::string::npos;
       at = text.find(pat, at + pat.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------
// Run stats

// A run's stage counts for a fixed workload must not depend on how many
// workers executed it.
TEST(ObsCounters, EngineCounterTotalsAreThreadCountIndependent) {
  Graph graph = LoadDatasetScaled("ego-Facebook", 0.1).graph;
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.runs_nondeterministic = 2;
  config.seed = 7;
  BatchMetricFn metric = [](const Graph& g, const Graph& h, Rng&) {
    return static_cast<double>(h.NumEdges()) /
           static_cast<double>(std::max<EdgeId>(1, g.NumEdges()));
  };

  // score_groups, subgraph_builds, metric_units and cells, in that order.
  auto run_and_count = [&](int threads) {
    BatchRunner runner(threads);
    ResumableSweep sweep(runner, nullptr, "test-rev");
    ResumableSweepStats stats;
    sweep.RunMulti(graph, "fb@0.1", {BatchMetric{"edge_ratio", metric}},
                   config, &stats);
    return std::vector<size_t>{stats.score_groups, stats.subgraph_builds,
                               stats.metric_units, stats.cells};
  };

  std::vector<size_t> at1 = run_and_count(1);
  EXPECT_EQ(at1, run_and_count(2));
  EXPECT_EQ(at1, run_and_count(8));
  // Sanity: the sweep actually counted its stages and units.
  EXPECT_GT(at1[0], 0u);
  EXPECT_GT(at1[1], 0u);
  EXPECT_EQ(at1[2], BatchRunner::ExpandGrid(ToBatchSpec(config)).size());
}

// ---------------------------------------------------------------------
// Span tracer + Chrome trace export

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::StopTracing();
  obs::DrainTrace();
  {
    TRACE_SPAN(span, "should_not_record");
    EXPECT_FALSE(span.active());
    span.Detail("ignored");
    span.Arg("k", "v");
  }
  EXPECT_TRUE(obs::DrainTrace().empty());
}

TEST(ObsTrace, BalancedValidJsonAtOneTwoAndEightThreads) {
  for (int num_threads : {1, 2, 8}) {
    constexpr int kSpansPerThread = 5;
    obs::StartTracing();
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([t] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          TRACE_SPAN(span, "unit");
          ASSERT_TRUE(span.active());
          span.Detail("metric-" + std::to_string(t));
          span.Arg("index", std::to_string(i));
        }
      });
    }
    for (auto& t : threads) t.join();
    obs::StopTracing();

    std::vector<obs::TraceEvent> events = obs::DrainTrace();
    size_t expected = static_cast<size_t>(num_threads) * kSpansPerThread;
    ASSERT_EQ(events.size(), expected) << num_threads << " threads";
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_LE(events[i - 1].begin_ns, events[i].begin_ns);  // sorted
    }
    for (const obs::TraceEvent& ev : events) {
      EXPECT_GE(ev.end_ns, ev.begin_ns);
    }

    std::ostringstream out;
    obs::WriteChromeTrace(events, out);
    std::string json = out.str();
    EXPECT_TRUE(JsonValidator(json).Valid()) << json.substr(0, 200);
    EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), expected);
    EXPECT_EQ(CountOccurrences(json, "\"ph\":\"E\""), expected);
  }
}

TEST(ObsTrace, ExportEscapesHostileStringsIntoValidJson) {
  std::vector<obs::TraceEvent> events(1);
  events[0].name = "weird";
  events[0].detail = "quote\" slash\\ newline\n tab\t ctrl\x01 end";
  events[0].begin_ns = 1000;
  events[0].end_ns = 2000;
  events[0].args.emplace_back("key\"", "value\\\n");
  std::ostringstream out;
  obs::WriteChromeTrace(events, out);
  std::string json = out.str();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

TEST(ObsTrace, TimestampsRebaseOntoEarliestSpan) {
  std::vector<obs::TraceEvent> events(2);
  events[0].name = "first";
  events[0].begin_ns = 5'000'000'000;  // arbitrary steady-clock offsets
  events[0].end_ns = 5'000'500'000;
  events[1].name = "second";
  events[1].begin_ns = 5'001'000'000;
  events[1].end_ns = 5'002'000'000;
  std::ostringstream out;
  obs::WriteChromeTrace(events, out);
  std::string json = out.str();
  // The earliest begin becomes ts 0; the later span sits 1000us after it.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
}

TEST(ObsTrace, StartTracingDropsStaleEvents) {
  obs::StartTracing();
  { TRACE_SPAN(span, "stale"); }
  // No drain: StartTracing itself must clear the leftover buffer.
  obs::StartTracing();
  { TRACE_SPAN(span, "fresh"); }
  obs::StopTracing();
  std::vector<obs::TraceEvent> events = obs::DrainTrace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "fresh");
}

// The determinism contract, end to end: the same sweep with tracing on
// exports a byte-identical CSV to one run with tracing off.
TEST(ObsTrace, SweepCsvIsByteIdenticalWithTracingOn) {
  Graph graph = LoadDatasetScaled("ego-Facebook", 0.1).graph;
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.runs_nondeterministic = 2;
  config.seed = 11;
  // A metric that consumes the per-cell RNG stream, so any perturbation
  // of seeding or scheduling by the tracer would change the values.
  BatchMetricFn metric = [](const Graph& g, const Graph& h, Rng& rng) {
    return QuadraticFormSimilarity(g, h, 5, rng);
  };

  auto run_to_csv = [&](const std::string& dir_name, bool tracing) {
    std::string dir = TestPath(dir_name);
    if (tracing) obs::StartTracing();
    std::string csv;
    {
      ResultStore store(dir);
      BatchRunner runner(4);
      ResumableSweep sweep(runner, &store, "test-rev");
      sweep.RunMulti(graph, "fb@0.1", {BatchMetric{"quad5", metric}},
                     config);
      std::ostringstream out;
      cli::ExportStore(store, out, /*csv=*/true);
      csv = out.str();
    }
    if (tracing) {
      obs::StopTracing();
      EXPECT_GT(obs::DrainTrace().size(), 0u);
    }
    return csv;
  };

  std::string off = run_to_csv("obs_csv_off", false);
  std::string on = run_to_csv("obs_csv_on", true);
  EXPECT_FALSE(off.empty());
  EXPECT_EQ(off, on);  // byte-identical
}

// ---------------------------------------------------------------------
// Profile aggregation

TEST(ObsProfile, AggregatesByStageAndOrdersByTotalTime) {
  std::vector<obs::TraceEvent> events;
  auto add = [&events](const char* name, const std::string& detail,
                       int64_t dur_ns) {
    obs::TraceEvent ev;
    ev.name = name;
    ev.detail = detail;
    ev.begin_ns = 1000;
    ev.end_ns = 1000 + dur_ns;
    events.push_back(std::move(ev));
  };
  // "metric_unit" dominates (3ms total), then "subgraph" (1ms).
  add("metric_unit", "degree", 1'000'000);
  add("metric_unit", "degree", 1'000'000);
  add("metric_unit", "spsp", 1'000'000);
  add("subgraph", "RN", 1'000'000);

  std::vector<obs::ProfileRow> rows = obs::BuildProfile(events);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].stage, "metric_unit");
  EXPECT_EQ(rows[0].detail, "degree");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_NEAR(rows[0].total_seconds, 2e-3, 1e-9);
  EXPECT_NEAR(rows[0].p50_ms, 1.0, 1e-6);
  EXPECT_NEAR(rows[0].max_ms, 1.0, 1e-6);
  EXPECT_EQ(rows[1].stage, "metric_unit");
  EXPECT_EQ(rows[1].detail, "spsp");
  EXPECT_EQ(rows[2].stage, "subgraph");

  std::ostringstream out;
  obs::PrintProfile(rows, obs::ProfileSummary{0.01, 2, 0.004}, out);
  std::string table = out.str();
  EXPECT_NE(table.find("metric_unit"), std::string::npos);
  EXPECT_NE(table.find("pool_util"), std::string::npos);
}

// ---------------------------------------------------------------------
// Pool busy time + progress callback

TEST(ObsPool, StatsCountTasksAndReset) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.BusySeconds(), 0.0);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&ran] {
      ran.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 16);

  // 16 sleeps of 200us each: at least 3.2ms of busy time in total.
  EXPECT_GE(pool.BusySeconds(), 16 * 200e-6);

  pool.ResetBusySeconds();
  EXPECT_EQ(pool.BusySeconds(), 0.0);
}

TEST(ObsProgress, CallbackFiresPerSubmittedUnitAndSkipsCachedRuns) {
  Graph graph = LoadDatasetScaled("ego-Facebook", 0.1).graph;
  SweepConfig config;
  config.sparsifiers = {"RN"};
  config.runs_nondeterministic = 2;
  config.seed = 3;
  BatchMetricFn metric = [](const Graph& g, const Graph& h, Rng&) {
    return static_cast<double>(h.NumEdges()) /
           static_cast<double>(std::max<EdgeId>(1, g.NumEdges()));
  };
  std::string dir = TestPath("obs_progress_store");
  ResultStore store(dir);
  BatchRunner runner(2);
  ResumableSweep sweep(runner, &store, "test-rev");

  std::atomic<size_t> calls{0};
  std::atomic<size_t> max_completed{0};
  std::atomic<size_t> reported_submitted{0};
  sweep.set_progress([&](size_t completed, size_t submitted) {
    calls.fetch_add(1);
    size_t prev = max_completed.load();
    while (completed > prev &&
           !max_completed.compare_exchange_weak(prev, completed)) {
    }
    reported_submitted.store(submitted);
  });

  ResumableSweepStats stats;
  sweep.RunMulti(graph, "fb@0.1", {BatchMetric{"edge_ratio", metric}}, config,
                 &stats);
  EXPECT_EQ(calls.load(), stats.submitted_cells);
  EXPECT_EQ(max_completed.load(), stats.submitted_cells);
  EXPECT_EQ(reported_submitted.load(), stats.submitted_cells);

  // Warm store: every unit cached, so the callback must never fire
  // (cached units were never work).
  calls.store(0);
  ResumableSweepStats warm;
  sweep.RunMulti(graph, "fb@0.1", {BatchMetric{"edge_ratio", metric}}, config,
                 &warm);
  EXPECT_EQ(warm.submitted_cells, 0u);
  EXPECT_EQ(calls.load(), 0u);
}

}  // namespace
}  // namespace sparsify
