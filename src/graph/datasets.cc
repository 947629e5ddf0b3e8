#include "src/graph/datasets.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "src/graph/generators.h"
#include "src/util/rng.h"

namespace sparsify {

namespace {

// Union of the canonical edges of two graphs over the same vertex set.
Graph UnionGraphs(const Graph& a, const Graph& b) {
  std::vector<Edge> edges = a.Edges();
  const std::vector<Edge>& eb = b.Edges();
  edges.insert(edges.end(), eb.begin(), eb.end());
  return Graph::FromEdges(std::max(a.NumVertices(), b.NumVertices()),
                          std::move(edges), a.IsDirected(),
                          a.IsWeighted() || b.IsWeighted());
}

struct Recipe {
  DatasetInfo info;
  Dataset (*build)(double scale);
};

NodeId Scaled(NodeId n, double scale) {
  return std::max<NodeId>(64, static_cast<NodeId>(n * scale));
}

Dataset BuildEgoFacebook(double s) {
  Rng rng(101);
  Dataset d;
  d.graph = BarabasiAlbert(Scaled(2000, s), 11, rng);
  return d;
}

Dataset BuildEgoTwitter(double s) {
  Rng rng(102);
  Dataset d;
  d.graph = ForestFireModel(Scaled(4000, s), 0.37, /*directed=*/true, rng);
  return d;
}

Dataset BuildHumanGene2(double s) {
  Rng rng(103);
  Dataset d;
  Graph base = PowerLawConfiguration(Scaled(1500, s), 2.0, 5, 400, rng);
  d.graph = WithRandomWeights(base, 100.0, rng);
  return d;
}

Dataset BuildComDblp(double s) {
  Rng rng(104);
  Dataset d;
  NodeId n = Scaled(3000, s);
  int k = std::max(4, static_cast<int>(n / 30));
  d.graph = PlantedPartition(n, k, 0.30, 0.0015, rng, &d.communities);
  return d;
}

Dataset BuildComAmazon(double s) {
  Rng rng(105);
  Dataset d;
  NodeId n = Scaled(3000, s);
  int k = std::max(4, static_cast<int>(n / 20));
  d.graph = PlantedPartition(n, k, 0.35, 0.0008, rng, &d.communities);
  return d;
}

Dataset BuildEmailEnron(double s) {
  Rng rng(106);
  Dataset d;
  d.graph = PowerLawConfiguration(Scaled(2000, s), 2.2, 1, 150, rng);
  return d;
}

Dataset BuildCaAstroPh(double s) {
  Rng rng(107);
  Dataset d;
  NodeId n = Scaled(2500, s);
  Graph ba = BarabasiAlbert(n, 4, rng);
  Graph ws = WattsStrogatz(n, 4, 0.05, rng);
  d.graph = UnionGraphs(ba, ws);
  return d;
}

Dataset BuildCaHepPh(double s) {
  Rng rng(108);
  Dataset d;
  NodeId n = Scaled(1800, s);
  Graph ba = BarabasiAlbert(n, 4, rng);
  Graph ws = WattsStrogatz(n, 3, 0.05, rng);
  d.graph = UnionGraphs(ba, ws);
  return d;
}

Dataset BuildWeb(uint64_t seed, NodeId n_target, EdgeId m_mult, double s) {
  Rng rng(seed);
  Dataset d;
  NodeId n = Scaled(n_target, s);
  int scale = std::max(6, static_cast<int>(std::ceil(std::log2(n))));
  EdgeId m = static_cast<EdgeId>(n) * m_mult;
  d.graph = RMat(scale, m, 0.57, 0.19, 0.19, /*directed=*/true, rng);
  return d;
}

Dataset BuildWebBerkStan(double s) { return BuildWeb(109, 3000, 11, s); }
Dataset BuildWebGoogle(double s) { return BuildWeb(110, 4000, 6, s); }
Dataset BuildWebNotreDame(double s) { return BuildWeb(111, 2500, 5, s); }
Dataset BuildWebStanford(double s) { return BuildWeb(112, 2800, 8, s); }

Dataset BuildReddit(double s) {
  Rng rng(113);
  Dataset d;
  NodeId n = Scaled(2500, s);
  d.graph = LfrBenchmark(n, 2.2, 6, std::max<NodeId>(20, n / 12), 2.0,
                         std::max<NodeId>(20, n / 50), 0.08, rng,
                         &d.communities);
  return d;
}

Dataset BuildOgbnProteins(double s) {
  Rng rng(114);
  Dataset d;
  NodeId n = Scaled(2000, s);
  d.graph = LfrBenchmark(n, 2.0, 10, std::max<NodeId>(30, n / 7), 2.0,
                         std::max<NodeId>(40, n / 10), 0.10, rng,
                         &d.communities);
  return d;
}

const Recipe kRecipes[] = {
    {{"ego-Facebook", "Social Network", false, false, true,
      "Barabasi-Albert(n=2000, m=11)"},
     &BuildEgoFacebook},
    {{"ego-Twitter", "Social Network", true, false, false,
      "ForestFireModel(n=4000, p=0.37, directed)"},
     &BuildEgoTwitter},
    {{"human_gene2", "gene", false, true, false,
      "PowerLawConfiguration(n=1500, gamma=2.0, deg in [5,400]) + Zipf "
      "weights"},
     &BuildHumanGene2},
    {{"com-DBLP", "Community Network", false, false, true,
      "PlantedPartition(n=3000, k=n/30, p_in=0.30, p_out=0.0015)"},
     &BuildComDblp},
    {{"com-Amazon", "Community Network", false, false, true,
      "PlantedPartition(n=3000, k=n/20, p_in=0.35, p_out=0.0008)"},
     &BuildComAmazon},
    {{"email-Enron", "communication", false, false, false,
      "PowerLawConfiguration(n=2000, gamma=2.2, deg in [1,150])"},
     &BuildEmailEnron},
    {{"ca-AstroPh", "collaboration", false, false, false,
      "BarabasiAlbert(n=2500, m=4) U WattsStrogatz(k=4, beta=0.05)"},
     &BuildCaAstroPh},
    {{"ca-HepPh", "collaboration", false, false, false,
      "BarabasiAlbert(n=1800, m=4) U WattsStrogatz(k=3, beta=0.05)"},
     &BuildCaHepPh},
    {{"web-BerkStan", "web", true, false, false,
      "RMAT(a=0.57, b=c=0.19, n~3000, m=11n, directed)"},
     &BuildWebBerkStan},
    {{"web-Google", "web", true, false, false,
      "RMAT(a=0.57, b=c=0.19, n~4000, m=6n, directed)"},
     &BuildWebGoogle},
    {{"web-NotreDame", "web", true, false, false,
      "RMAT(a=0.57, b=c=0.19, n~2500, m=5n, directed)"},
     &BuildWebNotreDame},
    {{"web-Stanford", "web", true, false, false,
      "RMAT(a=0.57, b=c=0.19, n~2800, m=8n, directed)"},
     &BuildWebStanford},
    {{"Reddit", "GNN", false, false, true,
      "LFR(n=2500, deg~PL(2.2) in [6,n/12], communities~PL(2.0), mu=0.08)"},
     &BuildReddit},
    {{"ogbn-proteins", "GNN", false, false, true,
      "LFR(n=2000, deg~PL(2.0) in [10,n/7], communities~PL(2.0), mu=0.10)"},
     &BuildOgbnProteins},
};

const Recipe& FindRecipe(const std::string& name) {
  for (const Recipe& r : kRecipes) {
    if (r.info.name == name) return r;
  }
  throw std::invalid_argument("unknown dataset: " + name);
}

}  // namespace

std::vector<std::string> DatasetNames() {
  std::vector<std::string> names;
  for (const Recipe& r : kRecipes) names.push_back(r.info.name);
  return names;
}

std::vector<DatasetInfo> AllDatasetInfos() {
  std::vector<DatasetInfo> infos;
  for (const Recipe& r : kRecipes) infos.push_back(r.info);
  return infos;
}

Dataset LoadDatasetScaled(const std::string& name, double scale) {
  // The scale sizes every recipe (Scaled() casts n * scale to a vertex
  // count) and names the dataset in store keys: NaN, infinity or a
  // non-positive scale is a caller mistake, not a graph.
  if (!std::isfinite(scale) || scale <= 0.0) {
    char got[32];
    std::snprintf(got, sizeof(got), "%g", scale);
    throw std::invalid_argument(
        std::string("dataset scale must be finite and > 0, got ") + got);
  }
  const Recipe& r = FindRecipe(name);
  Dataset d = r.build(scale);
  d.info = r.info;
  // Preprocessing step 1 (paper section 3.1): remove isolated vertices and
  // reindex. Community labels are remapped alongside.
  std::vector<NodeId> old_to_new;
  Graph cleaned = RemoveIsolatedVertices(d.graph, &old_to_new);
  if (!d.communities.empty()) {
    std::vector<int> comm(cleaned.NumVertices());
    for (NodeId v = 0; v < d.graph.NumVertices(); ++v) {
      if (old_to_new[v] != kInvalidNode) {
        comm[old_to_new[v]] = d.communities[v];
      }
    }
    d.communities = std::move(comm);
  }
  d.graph = std::move(cleaned);
  return d;
}

Dataset LoadDataset(const std::string& name) {
  return LoadDatasetScaled(name, 1.0);
}

}  // namespace sparsify
