#include "src/cli/figures.h"

#include <charconv>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#include "src/cli/metrics.h"
#include "src/engine/resumable_sweep.h"
#include "src/metrics/basic.h"
#include "src/metrics/centrality.h"
#include "src/metrics/clustering.h"
#include "src/metrics/components.h"
#include "src/metrics/distance.h"
#include "src/metrics/louvain.h"
#include "src/metrics/maxflow.h"

namespace sparsify::cli {

namespace {

// The 14-sparsifier set most full-grid figures sweep (paper Table 2 minus
// the weighted ER variant, plus ER-uw).
const std::vector<std::string> kAll14 = {
    "RN", "KN",  "RD",   "LD",   "SF",  "SP-3", "SP-5",
    "SP-7", "FF", "LS", "GS", "LSim", "SCAN", "ER-uw"};

constexpr int kTopK = 100;

FigureSpec Fig(std::string id, std::string title, std::string value_name,
               std::string dataset, double default_scale,
               std::vector<std::string> sparsifiers, std::string metric) {
  FigureSpec spec;
  spec.id = std::move(id);
  spec.title = std::move(title);
  spec.value_name = std::move(value_name);
  spec.dataset = std::move(dataset);
  spec.default_scale = default_scale;
  spec.sparsifiers = std::move(sparsifiers);
  spec.metric = std::move(metric);
  return spec;
}

std::vector<FigureSpec> BuildFigures() {
  std::vector<FigureSpec> figures;

  // Figure 1: connectivity damage on ca-AstroPh.
  {
    FigureSpec f = Fig("1a", "Figure 1a: Pair Unreachable Ratio on ca-AstroPh",
                       "unreach", "ca-AstroPh", 0.5, kAll14, "connectivity");
    f.reference = [](const Dataset& d) { return UnreachableRatio(d.graph); };
    figures.push_back(std::move(f));

    f = Fig("1b", "Figure 1b: Vertex Isolated Ratio on ca-AstroPh",
            "isolated", "ca-AstroPh", 0.5, kAll14, "isolated");
    f.reference = [](const Dataset& d) { return IsolatedRatio(d.graph); };
    figures.push_back(std::move(f));
  }

  // Figure 2: degree-distribution distance on ogbn-proteins.
  {
    FigureSpec f = Fig("2",
                       "Figure 2: Degree Distribution Bhattacharyya Distance "
                       "on ogbn-proteins",
                       "Bd", "ogbn-proteins", 0.5,
                       {"RN", "KN", "LD", "RD", "FF"}, "degree");
    f.reference = [](const Dataset&) { return 0.0; };
    figures.push_back(std::move(f));
  }

  // Figure 3: Laplacian quadratic-form similarity on com-Amazon.
  {
    FigureSpec f = Fig("3",
                       "Figure 3: Laplacian Quadratic Form Similarity on "
                       "com-Amazon",
                       "qf_sim", "com-Amazon", 0.5, {"RN", "ER-w", "ER-uw"},
                       "quadratic");
    f.reference = [](const Dataset&) { return 1.0; };
    figures.push_back(std::move(f));
  }

  // Figure 4: distance preservation on ca-AstroPh / ego-Facebook.
  {
    FigureSpec f = Fig("4a",
                       "Figure 4a: SPSP Mean Stretch Factor on ca-AstroPh",
                       "stretch", "ca-AstroPh", 0.4, kAll14, "spsp");
    f.reference = [](const Dataset&) { return 1.0; };
    figures.push_back(std::move(f));

    f = Fig("4a-unreach", "Figure 4a (companion): SPSP unreachable fraction",
            "unreach", "ca-AstroPh", 0.4, kAll14, "spsp_unreachable");
    f.reference = [](const Dataset&) { return 0.0; };
    figures.push_back(std::move(f));

    f = Fig("4b",
            "Figure 4b: Eccentricity Mean Stretch Factor on ca-AstroPh",
            "stretch", "ca-AstroPh", 0.4, kAll14, "eccentricity60");
    f.reference = [](const Dataset&) { return 1.0; };
    figures.push_back(std::move(f));

    f = Fig("4c", "Figure 4c: Diameter on ego-Facebook", "diameter",
            "ego-Facebook", 0.4, kAll14, "diameter");
    f.reference = [](const Dataset& d) {
      Rng diam_rng(7);
      return ApproxDiameter(d.graph, 6, diam_rng);
    };
    figures.push_back(std::move(f));
  }

  // Figures 5-7: centrality top-100 precision against a full-graph
  // reference ranking.
  {
    FigureSpec f = Fig("5a",
                       "Figure 5a: Betweenness Centrality Top-100 Precision "
                       "on com-DBLP",
                       "prec", "com-DBLP", 0.35,
                       {"RN", "LD", "RD", "FF", "LS", "GS", "SCAN"},
                       "betweenness500_ref");
    f.reference = [](const Dataset&) { return 1.0; };
    figures.push_back(std::move(f));

    f = Fig("5b",
            "Figure 5b: Closeness Centrality Top-100 Precision on ca-AstroPh",
            "prec", "ca-AstroPh", 0.35,
            {"RN", "LD", "RD", "FF", "LS", "GS", "SCAN"}, "closeness");
    f.reference = [](const Dataset&) { return 1.0; };
    figures.push_back(std::move(f));

    f = Fig("6",
            "Figure 6: Eigenvector Centrality Top-100 Precision on "
            "email-Enron",
            "prec", "email-Enron", 0.35, {"RN", "KN", "LD", "RD", "FF"},
            "eigenvector");
    f.reference = [](const Dataset&) { return 1.0; };
    figures.push_back(std::move(f));

    f = Fig("7",
            "Figure 7: Katz Centrality Top-100 Precision on ego-Twitter",
            "prec", "ego-Twitter", 0.35,
            {"RN", "KN", "LD", "RD", "FF", "ER-uw"}, "katz_ref");
    f.reference = [](const Dataset&) { return 1.0; };
    figures.push_back(std::move(f));
  }

  // Figure 8: Louvain community count on com-DBLP.
  {
    FigureSpec f = Fig("8",
                       "Figure 8: Number of Communities (Louvain) on "
                       "com-DBLP",
                       "#comm", "com-DBLP", 0.5,
                       {"RN", "KN", "LD", "RD", "SF", "SP-3", "SP-5", "SP-7",
                        "GS"},
                       "communities");
    f.reference = [](const Dataset& d) {
      Rng ref_rng(21);
      return static_cast<double>(
          LouvainCommunities(d.graph, ref_rng).num_clusters);
    };
    figures.push_back(std::move(f));
  }

  // Figure 9: clustering coefficients on com-Amazon / human_gene2.
  {
    FigureSpec f = Fig("9a",
                       "Figure 9a: Mean Clustering Coefficient on com-Amazon",
                       "MCC", "com-Amazon", 0.5,
                       {"RN", "KN", "SF", "SP-3", "SP-5", "SP-7", "LSim",
                        "GS", "SCAN"},
                       "mcc");
    f.reference = [](const Dataset& d) {
      return MeanClusteringCoefficient(d.graph);
    };
    figures.push_back(std::move(f));

    f = Fig("9b",
            "Figure 9b: Global Clustering Coefficient on human_gene2", "GCC",
            "human_gene2", 0.5, {"RN", "KN", "LSim", "GS", "SCAN", "ER-w"},
            "gcc");
    f.reference = [](const Dataset& d) {
      return GlobalClusteringCoefficient(d.graph);
    };
    figures.push_back(std::move(f));
  }

  // Figure 10: clustering F1 against a fixed full-graph Louvain reference;
  // the green line is the F1 of two independent full-graph runs.
  {
    FigureSpec f = Fig("10", "Figure 10: Clustering F1 Similarity on ca-HepPh",
                       "F1", "ca-HepPh", 0.5,
                       {"RN", "KN", "LD", "LS", "GS", "LSim", "SCAN", "ER-w",
                        "ER-uw"},
                       "f1_ref");
    f.reference = [](const Dataset& d) {
      Rng ref_rng(31);
      Clustering reference = LouvainCommunities(d.graph, ref_rng);
      Rng second_rng(32);
      Clustering second = LouvainCommunities(d.graph, second_rng);
      return ClusteringF1(second.label, reference.label);
    };
    figures.push_back(std::move(f));
  }

  // Figure 11: PageRank top-100 precision, directed and undirected.
  for (const auto& [id, dataset, variant] :
       {std::tuple{"11a", "web-Google", " (directed)"},
        std::tuple{"11b", "ego-Facebook", " (undirected)"}}) {
    FigureSpec f = Fig(id,
                       std::string("Figure ") + id +
                           ": PageRank Top-100 Precision on " + dataset +
                           variant,
                       "prec", dataset, 0.4,
                       {"RN", "KN", "LD", "RD", "GS", "SCAN", "ER-w",
                        "ER-uw"},
                       "pagerank_ref");
    f.reference = [](const Dataset&) { return 1.0; };
    figures.push_back(std::move(f));
  }

  // Figure 12: min-cut/max-flow stretch on ca-HepPh.
  {
    FigureSpec f = Fig("12",
                       "Figure 12: Min-cut/Max-flow Mean Stretch Factor on "
                       "ca-HepPh",
                       "ratio", "ca-HepPh", 0.35,
                       {"RN", "KN", "FF", "ER-w", "ER-uw"}, "maxflow60");
    f.reference = [](const Dataset&) { return 1.0; };
    figures.push_back(std::move(f));
  }

  return figures;
}

// The figure-private metrics keep the original benches' sample counts
// (60 eccentricity pivots and max-flow pairs, 500 betweenness pivots where
// the registry uses 50, 50 and 300) and fixed reference seeds (11, 31).
// Their references read `dataset`, the figure's own graph, never the
// engine's symmetrized copy: figures 7 and 11a score every sparsifier
// against the directed graph, as the benches did. On such a graph the
// engine may prepare the reference once per input; both copies are equal.
// Every other name is looked up in the registry.
BatchMetric FigureMetric(const std::string& name, const Graph& dataset) {
  const Graph* d = &dataset;
  // Registry metric `base` with its reference prepared on `dataset` from
  // Rng(seed).
  auto pinned = [&](const std::string& base, uint64_t seed) {
    return BatchMetric{
        name, nullptr,
        [prepare = FindMetric(base).prepare, d, seed](const Graph&, Rng&) {
          Rng ref_rng(seed);
          return prepare(*d, ref_rng);
        }};
  };
  if (name == "eccentricity60") {
    return {name, [](const Graph& g, const Graph& h, Rng& rng) {
              return EccentricityStretch(g, h, 60, rng).mean_stretch;
            }};
  }
  if (name == "maxflow60") {
    return {name, [](const Graph& g, const Graph& h, Rng& rng) {
              return MaxFlowStretch(g, h, 60, rng).mean_ratio;
            }};
  }
  if (name == "betweenness500_ref") {
    return {name, nullptr, [d](const Graph&, Rng&) -> MetricEvaluator {
              Rng ref_rng(11);
              return [ref = ApproxBetweennessCentrality(*d, 500, ref_rng)](
                         const Graph& h, Rng& rng) {
                return TopKPrecision(
                    ref, ApproxBetweennessCentrality(h, 500, rng), kTopK);
              };
            }};
  }
  // Katz and PageRank are deterministic: their seed is never read.
  if (name == "katz_ref") return pinned("katz", 0);
  if (name == "pagerank_ref") return pinned("pagerank", 0);
  if (name == "f1_ref") return pinned("f1", 31);
  return FindMetric(name);
}

}  // namespace

std::string DatasetCellName(const std::string& dataset, double scale) {
  // Shortest round-trip formatting: distinct scales are different graphs
  // and must never collide into one store key ("0.2" stays "0.2", but
  // 0.1250001 no longer truncates to 0.125's key).
  char buf[32];
  auto result = std::to_chars(buf, buf + sizeof(buf), scale);
  return dataset + "@" + std::string(buf, result.ptr);
}

const std::vector<FigureSpec>& AllFigures() {
  static const std::vector<FigureSpec> figures = BuildFigures();
  return figures;
}

const FigureSpec* FindFigure(const std::string& id) {
  for (const FigureSpec& f : AllFigures()) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

int RunFigures(const std::vector<std::string>& ids,
               const FigureRunOptions& opt, std::ostream& os) {
  std::vector<const FigureSpec*> specs;
  for (const std::string& id : ids) {
    const FigureSpec* spec = FindFigure(id);
    if (spec == nullptr) {
      std::cerr << "unknown figure '" << id << "' (known:";
      for (const FigureSpec& f : AllFigures()) std::cerr << " " << f.id;
      std::cerr << ")\n";
      return 1;
    }
    specs.push_back(spec);
  }

  BatchRunner runner(opt.threads);
  std::unique_ptr<ResultStore> store;
  if (!opt.store_dir.empty()) {
    store = std::make_unique<ResultStore>(opt.store_dir);
  }

  // Datasets are cached across figures (1a/1b, 4a/4b share one).
  std::map<std::string, Dataset> datasets;
  std::string last_announced;
  for (const FigureSpec* spec : specs) {
    double scale = opt.scale > 0.0 ? opt.scale : spec->default_scale;
    std::string dataset_key = DatasetCellName(spec->dataset, scale);
    auto [it, inserted] = datasets.try_emplace(dataset_key);
    if (inserted) it->second = LoadDatasetScaled(spec->dataset, scale);
    const Dataset& d = it->second;
    if (dataset_key != last_announced) {
      os << "Dataset: " << d.info.name << " (" << d.graph.Summary()
         << ")\n\n";
      last_announced = dataset_key;
    }

    SweepConfig config;
    config.sparsifiers = spec->sparsifiers;
    config.runs_nondeterministic = opt.runs;
    config.seed = opt.seed;

    ResumableSweep sweep(runner, store.get());
    sweep.set_reuse_cached(opt.resume);
    ResumableSweepStats stats;
    std::vector<MetricSweepSeries> out = sweep.RunMulti(
        d.graph, dataset_key, {FigureMetric(spec->metric, d.graph)}, config,
        &stats);
    const std::vector<SweepSeries>& series = out[0].series;
    if (store != nullptr) {
      os << "# store " << store->Dir() << ": total=" << stats.total_cells
         << " cached=" << stats.cached_cells
         << " submitted=" << stats.submitted_cells << "\n";
    }

    if (opt.csv) {
      PrintSeriesCsv(os, spec->title, series);
    } else {
      std::optional<double> reference;
      if (spec->reference) reference = spec->reference(d);
      PrintSeriesTable(os, spec->title, spec->value_name, series, reference);
    }
  }
  return 0;
}

}  // namespace sparsify::cli
