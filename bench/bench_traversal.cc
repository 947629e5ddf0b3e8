// Traversal-kernel benchmark: quantifies what the direction-optimizing
// hybrid BFS, the delta-stepping Dijkstra, and the reusable
// TraversalScratch buy over the seed implementation, per dataset shape.
//
// Three BFS variants run from the same random sources on every graph:
//   seed:   the pre-kernel per-call implementation — a freshly allocated
//           O(n) double distance vector plus a std::deque-backed
//           std::queue frontier, every call;
//   push:   the kernel in kPushOnly mode with a shared scratch (isolates
//           the allocation/layout win from the direction win);
//   hybrid: the kernel's full push/pull direction-optimizing mode.
//
// Every variant also reports heap allocations per call (this translation
// unit overrides global operator new/delete with counting versions), so
// the scratch-reuse win and the algorithmic win are separated instead of
// conflated in hybrid_vs_seed: the seed's per-call allocations are
// visible next to the kernel's zero.
//
// Weighted datasets additionally race the two SSSP modes from the same
// sources — DijkstraDistances with SsspMode::kBinaryHeap vs
// kDeltaStepping — and report delta_vs_heap (distances are bit-identical;
// the bench cross-checks reached counts and max distances per source).
//
// The emitted JSON (default BENCH_traversal.json; the committed copy at
// the repo root is this benchmark's single-threaded output) reports
// per-graph seconds, speedups, allocation counts, and the pull-round
// count. CI jq-asserts pull switches and hybrid-vs-push floors on both an
// undirected social shape and a >=50k-vertex directed web shape.
//
// Usage: bench_traversal [--datasets=ego-Facebook@0.5,web-Google@25]
//          [--sources=64] [--repeat=3] [--seed=42] [--cache=DIR]
//          [--out=BENCH_traversal.json] [--trace=FILE]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cli/args.h"
#include "src/graph/datasets.h"
#include "src/graph/ingest.h"
#include "src/graph/traversal.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace {
// Global allocation counter, bumped by the operator new overrides below.
// The bench is single-threaded; relaxed atomics keep the probe overhead
// to one uncontended RMW per allocation.
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sparsify {
namespace {

struct TraversalBenchOptions {
  // name@scale entries; scale defaults to 0.3 when omitted.
  std::vector<std::string> datasets = {"ego-Facebook@0.5", "web-Google@0.2",
                                       "ca-AstroPh@0.3"};
  int sources = 64;
  int repeat = 3;
  uint64_t seed = 42;
  std::string cache_dir;  // "" regenerates synthetics on every run
  std::string out = "BENCH_traversal.json";
};

constexpr char kUsage[] =
    "usage: bench_traversal [--datasets=NAME@SCALE,..] [--sources=n] "
    "[--repeat=n] [--seed=n] [--cache=DIR] [--out=FILE] [--trace=FILE]\n";

/// Attribution `meta` object for the emitted JSON, so the perf trajectory
/// is attributable run-to-run. Environment-passed fields (CI sets
/// SPARSIFY_GIT_REV to the commit sha and SPARSIFY_BENCH_TIMESTAMP to an
/// ISO-8601 UTC stamp) stay empty locally — the bench itself never reads a
/// clock or shells out to git, keeping its output a pure function of
/// inputs + environment.
std::string BenchMetaJson(int threads, const std::string& datasets) {
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

/// --trace=FILE handling: arms the span tracer for the bench run and
/// writes the drained spans as Chrome trace JSON on destruction. Inert
/// (one relaxed load per span site) when the path is empty.
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

// The seed-era ShortestPathDistances, verbatim: fresh allocations and a
// std::queue per call. This is the baseline the kernel replaced.
std::vector<double> SeedStyleBfs(const Graph& g, NodeId src) {
  std::vector<double> dist(g.NumVertices(), kInfDistance);
  dist[src] = 0.0;
  std::queue<NodeId> q;
  q.push(src);
  while (!q.empty()) {
    NodeId v = q.front();
    q.pop();
    for (NodeId u : g.OutNeighborNodes(v)) {
      if (dist[u] == kInfDistance) {
        dist[u] = dist[v] + 1.0;
        q.push(u);
      }
    }
  }
  return dist;
}

struct GraphResult {
  std::string name;
  NodeId vertices = 0;
  EdgeId edges = 0;
  bool directed = false;
  bool weighted = false;
  double seed_seconds = 0.0;
  double push_seconds = 0.0;
  double hybrid_seconds = 0.0;
  int pull_rounds = 0;       // total across the hybrid pass's sources
  uint64_t checksum = 0;     // per-mode reached-count sums must agree
  // Allocations per traversal call, measured on the final repeat (scratch
  // warm), separating scratch reuse from the direction-switch win.
  double seed_allocs_per_call = 0.0;
  double push_allocs_per_call = 0.0;
  double hybrid_allocs_per_call = 0.0;
  // Weighted datasets only: binary-heap vs delta-stepping Dijkstra.
  double dijkstra_heap_seconds = 0.0;
  double dijkstra_delta_seconds = 0.0;
};

std::string Json(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// A malformed flag value throws std::invalid_argument before anything is
// measured.
int TraversalBenchMain(const cli::Args& args) {
  TraversalBenchOptions opt;
  if (args.Has("datasets")) opt.datasets = cli::SplitCsv(args.Get("datasets"));
  opt.sources = args.GetInt("sources", opt.sources);
  opt.repeat = args.GetInt("repeat", opt.repeat);
  opt.seed = args.GetUint64("seed", opt.seed);
  opt.cache_dir = args.Get("cache");
  opt.out = args.Get("out", opt.out);
  if (opt.datasets.empty() || opt.sources < 1 || opt.repeat < 1) {
    throw std::invalid_argument(
        "need >= 1 dataset, --sources >= 1, --repeat >= 1");
  }
  std::vector<std::pair<std::string, double>> graphs;  // (name, scale)
  for (const std::string& spec : opt.datasets) {
    size_t at = spec.find('@');
    graphs.emplace_back(
        spec.substr(0, at),
        at == std::string::npos
            ? 0.3
            : cli::ParseDoubleValue("datasets", spec.substr(at + 1)));
  }
  BenchTraceScope trace_scope(args.Get("trace"));

  std::vector<GraphResult> results;
  for (size_t gi = 0; gi < opt.datasets.size(); ++gi) {
    const std::string& spec = opt.datasets[gi];
    const auto& [name, scale] = graphs[gi];
    // One span per dataset: the kernel itself records no spans (its hot
    // loops are the thing being measured), so the trace's granularity
    // here is the per-graph measurement section.
    TRACE_SPAN(graph_span, "bench_graph");
    if (graph_span.active()) graph_span.Detail(spec);
    Graph loaded = LoadDatasetScaledCached(name, scale, opt.cache_dir);
    // The kernel's direction optimization targets the unweighted BFS
    // path; weighted datasets bench their unweighted view for BFS and
    // the weighted graph for the Dijkstra race below.
    Graph graph = loaded.IsWeighted() ? loaded.Unweighted() : loaded;

    GraphResult r;
    r.name = spec;
    r.vertices = graph.NumVertices();
    r.edges = graph.NumEdges();
    r.directed = graph.IsDirected();
    r.weighted = loaded.IsWeighted();

    std::vector<NodeId> sources(opt.sources);
    Rng rng(opt.seed);
    for (int i = 0; i < opt.sources; ++i) {
      sources[i] = static_cast<NodeId>(rng.NextUint(graph.NumVertices()));
    }

    TraversalScratch scratch;
    for (int rep = 0; rep < opt.repeat; ++rep) {
      uint64_t seed_check = 0, push_check = 0, hybrid_check = 0;
      int pull_rounds = 0;

      uint64_t allocs_before = g_alloc_count.load();
      Timer seed_timer;
      for (NodeId src : sources) {
        std::vector<double> dist = SeedStyleBfs(graph, src);
        for (double x : dist) seed_check += x != kInfDistance;
      }
      double seed_s = seed_timer.Seconds();
      r.seed_allocs_per_call =
          static_cast<double>(g_alloc_count.load() - allocs_before) /
          opt.sources;

      allocs_before = g_alloc_count.load();
      Timer push_timer;
      for (NodeId src : sources) {
        TraversalSummary sum =
            BfsLevels(graph, src, scratch, BfsMode::kPushOnly);
        push_check += sum.reached;
      }
      double push_s = push_timer.Seconds();
      r.push_allocs_per_call =
          static_cast<double>(g_alloc_count.load() - allocs_before) /
          opt.sources;

      allocs_before = g_alloc_count.load();
      Timer hybrid_timer;
      for (NodeId src : sources) {
        TraversalSummary sum = BfsLevels(graph, src, scratch);
        hybrid_check += sum.reached;
        pull_rounds += sum.pull_rounds;
      }
      double hybrid_s = hybrid_timer.Seconds();
      r.hybrid_allocs_per_call =
          static_cast<double>(g_alloc_count.load() - allocs_before) /
          opt.sources;

      if (seed_check != push_check || push_check != hybrid_check) {
        std::cerr << "error: reached-count mismatch on " << spec << "\n";
        return 1;
      }
      if (rep == 0 || seed_s < r.seed_seconds) r.seed_seconds = seed_s;
      if (rep == 0 || push_s < r.push_seconds) r.push_seconds = push_s;
      if (rep == 0 || hybrid_s < r.hybrid_seconds) {
        r.hybrid_seconds = hybrid_s;
      }
      r.pull_rounds = pull_rounds;
      r.checksum = hybrid_check;
    }

    if (r.weighted) {
      // Same sources, weighted graph: binary heap vs delta stepping.
      // Distances are bit-identical (unique fixed point); reached counts
      // and per-source max distances are cross-checked exactly.
      for (int rep = 0; rep < opt.repeat; ++rep) {
        uint64_t heap_reached = 0, delta_reached = 0;
        double heap_max = 0.0, delta_max = 0.0;

        Timer heap_timer;
        for (NodeId src : sources) {
          TraversalSummary sum =
              DijkstraDistances(loaded, src, scratch, SsspMode::kBinaryHeap);
          heap_reached += sum.reached;
          heap_max += sum.max_dist;
        }
        double heap_s = heap_timer.Seconds();

        Timer delta_timer;
        for (NodeId src : sources) {
          TraversalSummary sum = DijkstraDistances(loaded, src, scratch,
                                                   SsspMode::kDeltaStepping);
          delta_reached += sum.reached;
          delta_max += sum.max_dist;
        }
        double delta_s = delta_timer.Seconds();

        if (heap_reached != delta_reached || heap_max != delta_max) {
          std::cerr << "error: Dijkstra mode mismatch on " << spec << "\n";
          return 1;
        }
        if (rep == 0 || heap_s < r.dijkstra_heap_seconds) {
          r.dijkstra_heap_seconds = heap_s;
        }
        if (rep == 0 || delta_s < r.dijkstra_delta_seconds) {
          r.dijkstra_delta_seconds = delta_s;
        }
      }
    }

    std::printf(
        "%-22s |V|=%u |E|=%u %s seed=%.4fs push=%.4fs hybrid=%.4fs "
        "hybrid_vs_seed=%.2fx hybrid_vs_push=%.2fx pull_rounds=%d "
        "allocs/call seed=%.1f push=%.1f hybrid=%.1f",
        spec.c_str(), r.vertices, r.edges, r.directed ? "dir" : "und",
        r.seed_seconds, r.push_seconds, r.hybrid_seconds,
        r.hybrid_seconds > 0 ? r.seed_seconds / r.hybrid_seconds : 0.0,
        r.hybrid_seconds > 0 ? r.push_seconds / r.hybrid_seconds : 0.0,
        r.pull_rounds, r.seed_allocs_per_call, r.push_allocs_per_call,
        r.hybrid_allocs_per_call);
    if (r.weighted) {
      std::printf(" dijkstra heap=%.4fs delta=%.4fs delta_vs_heap=%.2fx",
                  r.dijkstra_heap_seconds, r.dijkstra_delta_seconds,
                  r.dijkstra_delta_seconds > 0
                      ? r.dijkstra_heap_seconds / r.dijkstra_delta_seconds
                      : 0.0);
    }
    std::printf("\n");
    results.push_back(std::move(r));
  }

  std::string joined_datasets;
  for (const std::string& spec : opt.datasets) {
    joined_datasets += joined_datasets.empty() ? spec : "," + spec;
  }
  std::ostringstream json;
  json << "{\n";
  json << "  \"benchmark\": \"traversal\",\n";
  // The kernel timing loops are single-threaded by design (the per-call
  // costs being raced are serial); meta.threads records that.
  json << "  \"meta\": " << BenchMetaJson(1, joined_datasets) << ",\n";
  json << "  \"sources\": " << opt.sources << ",\n";
  json << "  \"repeat\": " << opt.repeat << ",\n";
  json << "  \"seed\": " << opt.seed << ",\n";
  json << "  \"graphs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const GraphResult& r = results[i];
    double vs_seed =
        r.hybrid_seconds > 0 ? r.seed_seconds / r.hybrid_seconds : 0.0;
    double vs_push =
        r.hybrid_seconds > 0 ? r.push_seconds / r.hybrid_seconds : 0.0;
    json << "    {\"name\": \"" << r.name << "\", \"vertices\": "
         << r.vertices << ", \"edges\": " << r.edges
         << ", \"directed\": " << (r.directed ? "true" : "false")
         << ", \"weighted\": " << (r.weighted ? "true" : "false")
         << ", \"seed_seconds\": " << Json(r.seed_seconds)
         << ", \"push_seconds\": " << Json(r.push_seconds)
         << ", \"hybrid_seconds\": " << Json(r.hybrid_seconds)
         << ", \"hybrid_vs_seed\": " << Json(vs_seed)
         << ", \"hybrid_vs_push\": " << Json(vs_push)
         << ", \"pull_rounds\": " << r.pull_rounds
         << ", \"seed_allocs_per_call\": " << Json(r.seed_allocs_per_call)
         << ", \"push_allocs_per_call\": " << Json(r.push_allocs_per_call)
         << ", \"hybrid_allocs_per_call\": "
         << Json(r.hybrid_allocs_per_call)
         << ", \"bfs_per_second_hybrid\": "
         << Json(r.hybrid_seconds > 0
                     ? static_cast<double>(opt.sources) / r.hybrid_seconds
                     : 0.0);
    if (r.weighted) {
      json << ", \"dijkstra_heap_seconds\": " << Json(r.dijkstra_heap_seconds)
           << ", \"dijkstra_delta_seconds\": "
           << Json(r.dijkstra_delta_seconds)
           << ", \"delta_vs_heap\": "
           << Json(r.dijkstra_delta_seconds > 0
                       ? r.dijkstra_heap_seconds / r.dijkstra_delta_seconds
                       : 0.0);
    }
    json << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n";
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

}  // namespace
}  // namespace sparsify

int main(int argc, char** argv) {
  return sparsify::cli::MainWithArgs(
      argc, argv, {"datasets", "sources", "repeat", "seed", "cache", "out",
                   "trace"},
      sparsify::kUsage, sparsify::TraversalBenchMain);
}
