#include "src/cli/figures.h"

#include <charconv>

#include "src/cli/metrics.h"
#include "src/gnn/data.h"
#include "src/gnn/models.h"
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

// Figure 13's protocol per model: the node-classification task drawn from
// the dataset's planted communities (8 classes, 16-dim features with
// Gaussian `noise`, half the vertices for training, from Rng(data_seed)),
// the train-and-score function, and the fixed seeds of the full-graph
// (green) and empty-graph (red) lines.
struct GnnProtocol {
  const char* metric;
  uint64_t data_seed;
  double noise;
  double (*train)(const Graph& train_graph, const Graph& full_graph,
                  const NodeClassificationData& data, Rng& rng);
  uint64_t full_seed;
  uint64_t empty_seed;
};

// Reddit's stand-in communities are dense enough that the task saturates
// at 13a's noise level, hence the higher noise for 13b.
const GnnProtocol kGnnProtocols[] = {
    {"graphsage_auroc", 41, 1.4, TrainSageAuroc, 42, 43},
    {"clustergcn_acc", 44, 2.2, TrainClusterGcnAccuracy, 45, 46},
};

NodeClassificationData GnnTask(const GnnProtocol& p, const Dataset& d) {
  Rng rng(p.data_seed);
  return MakeNodeClassificationData(d.communities, 8, 16, p.noise, 0.5, rng);
}

// Trains on `train_graph` (the full graph or its edgeless copy) with the
// line's fixed seed and scores on the same graph.
double GnnLine(const GnnProtocol& p, const Dataset& d, bool empty) {
  Graph train_graph =
      empty ? Graph::FromEdges(d.graph.NumVertices(), {}, false, false)
            : d.graph;
  Rng rng(empty ? p.empty_seed : p.full_seed);
  return p.train(train_graph, train_graph, GnnTask(p, d), rng);
}

// Figure 13's five rates and its green and red lines.
FigureSpec WithGnnLines(FigureSpec f, const GnnProtocol& p) {
  f.rates = {0.1, 0.3, 0.5, 0.7, 0.9};
  f.reference = [&p](const Dataset& d) { return GnnLine(p, d, false); };
  f.baseline = [&p](const Dataset& d) { return GnnLine(p, d, true); };
  return f;
}

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

  // Figure 1: connectivity damage on ca-AstroPh. Expected shape (paper
  // section 4.1): KN / LD / LSim / ER keep both ratios low; SF and SP-t
  // preserve connectivity exactly; RN degrades steadily; GS and SCAN are
  // the worst because they keep intra-community edges.
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

  // Figure 2: degree-distribution distance on ogbn-proteins (lower is
  // better). Expected shape (section 4.1): Random is the best (unbiased
  // edge sampling keeps the distribution's shape); LD, RD, KN and FF
  // under-perform because their selection is biased by degree.
  {
    FigureSpec f = Fig("2",
                       "Figure 2: Degree Distribution Bhattacharyya Distance "
                       "on ogbn-proteins",
                       "Bd", "ogbn-proteins", 0.5,
                       {"RN", "KN", "LD", "RD", "FF"}, "degree");
    f.reference = [](const Dataset&) { return 0.0; };
    figures.push_back(std::move(f));
  }

  // Figure 3: Laplacian quadratic-form similarity on com-Amazon. Expected
  // shape (section 4.1): ER-w stays near 1 at every prune rate — it is the
  // only sparsifier designed to preserve the quadratic form; the rest
  // decay like the kept-edge fraction.
  {
    FigureSpec f = Fig("3",
                       "Figure 3: Laplacian Quadratic Form Similarity on "
                       "com-Amazon",
                       "qf_sim", "com-Amazon", 0.5, {"RN", "ER-w", "ER-uw"},
                       "quadratic");
    f.reference = [](const Dataset&) { return 1.0; };
    figures.push_back(std::move(f));
  }

  // Figure 4: distance preservation on ca-AstroPh / ego-Facebook. The
  // stretch points are meaningful only while the connectivity damage stays
  // under the paper's 20% threshold; 4a-unreach reports it so the reader
  // can apply the same cut. Expected shape (section 4.2): LD and RD track
  // stretch ~1 the longest (they keep hub edges that lie on many shortest
  // paths); SP-t obeys its stretch bound but is coarser; GS and SCAN blow
  // up early.
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
  // reference ranking. Expected shape (section 4.3): LD / RD / RN lead
  // betweenness and closeness (hub edges preserve hub rankings); RD leads
  // eigenvector; RN leads Katz (unbiased sampling keeps the hop
  // structure); GS / SCAN trail everywhere; FF and KN under-perform on
  // eigenvector.
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

  // Figure 8: Louvain community count on com-DBLP. Expected shape
  // (section 4.4): LD and KN stay near the ground truth by preserving
  // connectivity; SF / SP-t do even better; RD and GS inflate the count
  // as the graph shatters; RN drifts upward steadily.
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
  // Expected shape (section 4.4): no sparsifier preserves them — they all
  // decay roughly linearly with the prune rate; LSim / GS / SCAN may bump
  // MCC slightly at low rates; SF and SP-t pin MCC near 0.
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
  // the green line is the F1 of two independent full-graph runs (not 1.0:
  // Louvain is randomized). Expected shape (section 4.4): KN best overall;
  // LSim / LD / LS and the ER variants strong; GS and SCAN weakest.
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
  // Expected shape (section 4.5): on the directed web graph ER's precision
  // is nearly constant across prune rates; KN and RN are strong at low
  // rates; LD under-performs on directed graphs but not on undirected
  // ones; GS and SCAN under-perform everywhere.
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

  // Figure 12: min-cut/max-flow stretch on ca-HepPh. Expected shape
  // (section 4.5): ER-w is the clear winner (min-cuts are spectral
  // objects); KN and FF are decent; ER-uw loses to ER-w because removed
  // capacity is not compensated.
  {
    FigureSpec f = Fig("12",
                       "Figure 12: Min-cut/Max-flow Mean Stretch Factor on "
                       "ca-HepPh",
                       "ratio", "ca-HepPh", 0.35,
                       {"RN", "KN", "FF", "ER-w", "ER-uw"}, "maxflow60");
    f.reference = [](const Dataset&) { return 1.0; };
    figures.push_back(std::move(f));
  }

  // Figure 13: GNN accuracy when training on the sparsified graph and
  // testing on the full one. The green line trains on the full graph, the
  // red line on the empty graph (features only). Expected shape (section
  // 4.5): RN and LSim lead GraphSAGE; GS and SCAN do well on ClusterGCN;
  // LD and RD under-perform on both (hub edges are not what message
  // passing needs).
  {
    figures.push_back(WithGnnLines(
        Fig("13a",
            "Figure 13a: GraphSAGE AUROC on ogbn-proteins (train "
            "sparsified, test full)",
            "AUROC", "ogbn-proteins", 0.35,
            {"RN", "LD", "RD", "GS", "LSim", "SCAN"},
            kGnnProtocols[0].metric),
        kGnnProtocols[0]));
    figures.push_back(WithGnnLines(
        Fig("13b",
            "Figure 13b: ClusterGCN Accuracy on Reddit (train sparsified, "
            "test full)",
            "acc", "Reddit", 0.35, {"RN", "LD", "RD", "FF", "GS", "SCAN"},
            kGnnProtocols[1].metric),
        kGnnProtocols[1]));
  }

  return figures;
}

}  // namespace

// The figure-private metrics keep the original figure protocols' sample
// counts (60 eccentricity pivots and max-flow pairs, 500 betweenness
// pivots where the registry uses 50, 50 and 300) and fixed reference seeds
// (11, 31). Their references read `dataset`, the figure's own graph, never
// the engine's symmetrized copy: figures 7 and 11a score every sparsifier
// against the directed graph. On such a graph the engine may prepare the
// reference once per input; both copies are equal. The GNN metrics build
// their task in the reference stage and train one model per unit.
BatchMetric FigureMetric(const std::string& name, const Dataset& dataset) {
  const Dataset* d = &dataset;
  // Registry metric `base` with its reference prepared on `dataset` from
  // Rng(seed).
  auto pinned = [&](const std::string& base, uint64_t seed) {
    return BatchMetric{
        name, nullptr,
        [prepare = FindMetric(base).prepare, d, seed](const Graph&, Rng&) {
          Rng ref_rng(seed);
          return prepare(d->graph, ref_rng);
        }};
  };
  for (const GnnProtocol& p : kGnnProtocols) {
    if (name != p.metric) continue;
    return {name, nullptr, [p, d](const Graph&, Rng&) -> MetricEvaluator {
              return [p, d, data = GnnTask(p, *d)](const Graph& h, Rng& rng) {
                return p.train(h, d->graph, data, rng);
              };
            }};
  }
  if (name == "eccentricity60") {
    return {name,
            [](const Graph& g, const Graph& h, Rng& rng) {
              return EccentricityStretch(g, h, 60, rng).mean_stretch;
            },
            nullptr};
  }
  if (name == "maxflow60") {
    return {name,
            [](const Graph& g, const Graph& h, Rng& rng) {
              return MaxFlowStretch(g, h, 60, rng).mean_ratio;
            },
            nullptr};
  }
  if (name == "betweenness500_ref") {
    return {name, nullptr, [d](const Graph&, Rng&) -> MetricEvaluator {
              Rng ref_rng(11);
              return [ref = ApproxBetweennessCentrality(d->graph, 500,
                                                        ref_rng)](
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

}  // namespace sparsify::cli
