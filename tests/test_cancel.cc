// Cancellation, deadlines, and graceful-shutdown plumbing: token
// semantics (flag, deadline latch, parent chain), the one-load-when-
// unarmed check macro, cooperative checks inside the traversal / CG /
// ER / t-spanner / clustering kernels, the conformance of every registry
// sparsifier and metric, ThreadPool Stop(drain|abandon), the hang
// failpoint, the signal bridge, and the engine-level contracts: a
// timed-out stage fails ALONE as a typed "deadline" error record, and a
// run-level cancellation leaves the store consistent so --resume
// reproduces the cold run bit-identically.
#include "src/util/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/cli/metrics.h"
#include "src/engine/resumable_sweep.h"
#include "src/gnn/data.h"
#include "src/gnn/models.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/traversal.h"
#include "src/metrics/basic.h"
#include "src/metrics/centrality.h"
#include "src/metrics/clustering.h"
#include "src/metrics/louvain.h"
#include "src/metrics/maxflow.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/sparsifiers/effective_resistance.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/sparsifiers/t_spanner.h"
#include "src/util/errors.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ---------------------------------------------------------------------------
// Token semantics
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, FreshTokenIsNotCancelled) {
  CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  EXPECT_EQ(token.reason(), CancelToken::Reason::kNone);
  EXPECT_NO_THROW(token.ThrowIfCancelled());
}

TEST(CancelTokenTest, CancelIsStickyAndFirstCauseWins) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.reason(), CancelToken::Reason::kCancelled);
  // A later Cancel with a different reason must not rewrite history.
  token.Cancel(CancelToken::Reason::kDeadline);
  EXPECT_EQ(token.reason(), CancelToken::Reason::kCancelled);
  EXPECT_THROW(token.ThrowIfCancelled(), CancelledError);
}

TEST(CancelTokenTest, ExpiredDeadlineLatchesAndThrowsTyped) {
  CancelToken token;
  token.SetDeadlineAfter(-1.0);  // already expired
  EXPECT_TRUE(token.Cancelled());
  // The first check latched the deadline into the flag.
  EXPECT_EQ(token.reason(), CancelToken::Reason::kDeadline);
  EXPECT_THROW(token.ThrowIfCancelled(), DeadlineExceededError);
  // DeadlineExceededError IS-A CancelledError: generic handlers see both.
  EXPECT_THROW(token.ThrowIfCancelled(), CancelledError);
}

TEST(CancelTokenTest, FutureDeadlineDoesNotTripEarly) {
  // A budget past the clock's range saturates instead of wrapping into
  // the past.
  for (double seconds : {3600.0, 1e10, 1e300,
                         std::numeric_limits<double>::infinity()}) {
    CancelToken token;
    token.SetDeadlineAfter(seconds);
    EXPECT_FALSE(token.Cancelled()) << seconds;
    EXPECT_NO_THROW(token.ThrowIfCancelled()) << seconds;
  }
}

TEST(CancelTokenTest, ParentCancellationPropagatesToChild) {
  CancelToken parent;
  CancelToken child(&parent);
  EXPECT_FALSE(child.Cancelled());
  parent.Cancel();
  EXPECT_TRUE(child.Cancelled());
  // The child's OWN flag stays clean; the effective reason walks up.
  EXPECT_EQ(child.reason(), CancelToken::Reason::kNone);
  EXPECT_EQ(child.EffectiveReason(), CancelToken::Reason::kCancelled);
  EXPECT_THROW(child.ThrowIfCancelled(), CancelledError);
}

TEST(CancelTokenTest, ChildDeadlineDoesNotTripParent) {
  CancelToken parent;
  CancelToken child(&parent);
  child.SetDeadlineAfter(-1.0);
  EXPECT_TRUE(child.Cancelled());
  EXPECT_FALSE(parent.Cancelled());
}

// ---------------------------------------------------------------------------
// Scope + check macro
// ---------------------------------------------------------------------------

TEST(CancelScopeTest, CheckIsNoopWithoutAnInstalledScope) {
  CancelToken token;
  token.Cancel();
  // The token exists but no scope installed it anywhere: checks must
  // stay the unarmed single-load no-op.
  EXPECT_NO_THROW(SPARSIFY_CHECK_CANCELLED());
}

TEST(CancelScopeTest, ScopeInstallsAndRestoresTheAmbientToken) {
  CancelToken token;
  EXPECT_EQ(CurrentCancelToken(), nullptr);
  {
    CancelScope scope(&token);
    EXPECT_EQ(CurrentCancelToken(), &token);
    EXPECT_NO_THROW(SPARSIFY_CHECK_CANCELLED());  // not tripped yet
    token.Cancel();
    EXPECT_THROW(SPARSIFY_CHECK_CANCELLED(), CancelledError);
  }
  EXPECT_EQ(CurrentCancelToken(), nullptr);
  EXPECT_NO_THROW(SPARSIFY_CHECK_CANCELLED());
}

TEST(CancelScopeTest, NullScopeIsANoop) {
  CancelToken token;
  token.Cancel();
  CancelScope outer(&token);
  {
    // The engine installs CancelScope(nullptr) on non-cancellable units;
    // that must not mask or disturb an enclosing scope.
    CancelScope inner(nullptr);
    EXPECT_EQ(CurrentCancelToken(), &token);
  }
  EXPECT_EQ(CurrentCancelToken(), &token);
}

// ---------------------------------------------------------------------------
// Kernel checks: BFS rounds, Dijkstra buckets, CG-backed ER scoring,
// the t-spanner's greedy edge scan, the clustering triangle pass, the
// centrality power iterations, the closeness multi-source BFS levels
// ---------------------------------------------------------------------------

class KernelCancelTest : public ::testing::Test {
 protected:
  KernelCancelTest() {
    Rng rng(7);
    graph_ = WattsStrogatz(2000, 4, 0.1, rng);
  }
  Graph graph_;
  TraversalScratch scratch_;
};

TEST_F(KernelCancelTest, BfsObservesCancellationAtRoundGranularity) {
  CancelToken token;
  token.Cancel();
  CancelScope scope(&token);
  EXPECT_THROW(BfsLevels(graph_, 0, scratch_), CancelledError);
}

TEST_F(KernelCancelTest, DijkstraObservesCancellation) {
  CancelToken token;
  token.Cancel();
  CancelScope scope(&token);
  EXPECT_THROW(DijkstraDistances(graph_, 0, scratch_), CancelledError);
}

TEST_F(KernelCancelTest, ErScoringObservesDeadlineBeforeAnyCgSolve) {
  Rng gen(11);
  Graph g = ErdosRenyi(300, 1200, /*directed=*/false, gen);
  CancelToken token;
  token.SetDeadlineAfter(-1.0);
  CancelScope scope(&token);
  EffectiveResistanceSparsifier er(/*reweight=*/false);
  Rng rng(42);
  EXPECT_THROW(er.PrepareScores(g, rng), DeadlineExceededError);
}

TEST_F(KernelCancelTest, SpannerScoringObservesDeadline) {
  Rng gen(12);
  Graph g = BarabasiAlbert(4000, 5, gen);  // ~20k edges
  CancelToken token;
  token.SetDeadlineAfter(-1.0);
  CancelScope scope(&token);
  TSpannerSparsifier sp(3.0);
  Rng rng(43);
  EXPECT_THROW(sp.PrepareScores(g, rng), DeadlineExceededError);
}

TEST_F(KernelCancelTest, ClusteringObservesDeadline) {
  Rng gen(13);
  Graph g = BarabasiAlbert(4000, 5, gen);
  CancelToken token;
  token.SetDeadlineAfter(-1.0);
  CancelScope scope(&token);
  EXPECT_THROW(MeanClusteringCoefficient(g), DeadlineExceededError);
  EXPECT_THROW(GlobalClusteringCoefficient(g), DeadlineExceededError);
}

// PageRank, eigenvector and Katz centrality poll once per power step.
TEST_F(KernelCancelTest, PowerIterationsObserveDeadline) {
  CancelToken token;
  token.SetDeadlineAfter(-1.0);
  CancelScope scope(&token);
  EXPECT_THROW(PageRank(graph_), DeadlineExceededError);
  EXPECT_THROW(EigenvectorCentrality(graph_), DeadlineExceededError);
  EXPECT_THROW(KatzCentrality(graph_), DeadlineExceededError);
}

// The polls read no state: without a token the results equal a run under
// a token that never fires.
TEST_F(KernelCancelTest, PowerIterationPollsLeaveResultsUnchanged) {
  const std::vector<double> pr = PageRank(graph_);
  const std::vector<double> ev = EigenvectorCentrality(graph_);
  const std::vector<double> katz = KatzCentrality(graph_);
  CancelToken token;
  token.SetDeadlineAfter(3600.0);
  CancelScope scope(&token);
  EXPECT_EQ(PageRank(graph_), pr);
  EXPECT_EQ(EigenvectorCentrality(graph_), ev);
  EXPECT_EQ(KatzCentrality(graph_), katz);
}

// Closeness polls once per level of each multi-source BFS.
TEST_F(KernelCancelTest, ClosenessObservesDeadline) {
  CancelToken token;
  token.SetDeadlineAfter(-1.0);
  CancelScope scope(&token);
  EXPECT_THROW(ClosenessCentrality(graph_), DeadlineExceededError);
}

TEST_F(KernelCancelTest, ClosenessPollsLeaveResultsUnchanged) {
  const std::vector<double> want = ClosenessCentrality(graph_);
  CancelToken token;
  token.SetDeadlineAfter(3600.0);
  CancelScope scope(&token);
  const std::vector<double> got = ClosenessCentrality(graph_);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

// Sampled betweenness polls once per Brandes pivot, not only once per
// batch of 32: a deadline that expires inside the one batch stops it.
// The 32 Brandes passes over 100k vertices take far longer than the
// 20 ms budget, so the batch cannot finish before the deadline.
TEST_F(KernelCancelTest, BetweennessObservesDeadline) {
  Rng gen(11);
  const Graph g = WattsStrogatz(100000, 4, 0.1, gen);
  CancelToken token;
  token.SetDeadlineAfter(0.02);
  CancelScope scope(&token);
  Rng rng(5);
  EXPECT_THROW(ApproxBetweennessCentrality(g, 32, rng),
               DeadlineExceededError);
}

// The pivot polls draw nothing from the pivot stream: scores under a
// token that never fires equal the unpolled ones.
TEST_F(KernelCancelTest, BetweennessPollsLeaveResultsUnchanged) {
  Rng plain_rng(5);
  const std::vector<double> want =
      ApproxBetweennessCentrality(graph_, 64, plain_rng);
  CancelToken token;
  token.SetDeadlineAfter(3600.0);
  CancelScope scope(&token);
  Rng polled_rng(5);
  const std::vector<double> got =
      ApproxBetweennessCentrality(graph_, 64, polled_rng);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

// Louvain polls once per local-moving sweep, so an expired deadline stops
// it before the first sweep.
TEST_F(KernelCancelTest, LouvainObservesDeadline) {
  CancelToken token;
  token.SetDeadlineAfter(-1.0);
  CancelScope scope(&token);
  Rng rng(3);
  EXPECT_THROW(LouvainCommunities(graph_, rng), DeadlineExceededError);
}

// The poll draws nothing from the visit-order stream: labels under a token
// that never fires equal the labels without one.
TEST_F(KernelCancelTest, LouvainPollsLeaveLabelsUnchanged) {
  Rng plain_rng(3);
  const Clustering plain = LouvainCommunities(graph_, plain_rng);
  CancelToken token;
  token.SetDeadlineAfter(3600.0);
  CancelScope scope(&token);
  Rng polled_rng(3);
  const Clustering polled = LouvainCommunities(graph_, polled_rng);
  EXPECT_EQ(polled.label, plain.label);
  EXPECT_EQ(polled.num_clusters, plain.num_clusters);
  EXPECT_EQ(polled.modularity, plain.modularity);
}

// Dinic max-flow polls once per BFS phase.
TEST_F(KernelCancelTest, MaxFlowObservesDeadline) {
  CancelToken token;
  token.SetDeadlineAfter(-1.0);
  CancelScope scope(&token);
  EXPECT_THROW(MaxFlow(graph_, 0, 1000), DeadlineExceededError);
}

// The phase polls read no state: under a token that never fires, the
// stretch over half the edges equals the unpolled one.
TEST_F(KernelCancelTest, MaxFlowPollsLeaveResultsUnchanged) {
  std::vector<uint8_t> keep(graph_.NumEdges());
  for (size_t e = 0; e < keep.size(); e += 2) keep[e] = 1;
  const Graph half = graph_.Subgraph(keep);
  Rng plain_rng(5);
  const FlowStretchResult plain = MaxFlowStretch(graph_, half, 20, plain_rng);
  CancelToken token;
  token.SetDeadlineAfter(3600.0);
  CancelScope scope(&token);
  Rng polled_rng(5);
  const FlowStretchResult polled =
      MaxFlowStretch(graph_, half, 20, polled_rng);
  EXPECT_EQ(polled.mean_ratio, plain.mean_ratio);
  EXPECT_EQ(polled.pairs_evaluated, plain.pairs_evaluated);
  EXPECT_EQ(polled.zero_flow_fraction, plain.zero_flow_fraction);
}

// GNN training polls once per epoch: GraphSAGE through the Figure 13a
// protocol, ClusterGCN on its epoch directly (its protocol runs Louvain
// first, which polls on its own).
struct GnnCase {
  Graph graph;
  NodeClassificationData data;
};

// A 240-vertex, 4-community graph and its node-classification task.
GnnCase MakeGnnCase() {
  Rng gen(6);
  std::vector<int> communities;
  GnnCase c;
  c.graph = PlantedPartition(240, 4, 0.35, 0.01, gen, &communities);
  Rng data_rng(7);
  c.data = MakeNodeClassificationData(communities, 4, 12, 0.8, 0.5, data_rng);
  return c;
}

TEST_F(KernelCancelTest, GnnTrainingObservesDeadline) {
  const GnnCase c = MakeGnnCase();
  const Graph& g = c.graph;
  const NodeClassificationData& data = c.data;
  std::vector<NodeId> all(g.NumVertices());
  for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
  CancelToken token;
  token.SetDeadlineAfter(-1.0);
  CancelScope scope(&token);
  Rng sage_rng(8);
  EXPECT_THROW(TrainSageAuroc(g, g, data, sage_rng), DeadlineExceededError);
  Rng gcn_rng(9);
  ClusterGcn model(12, 16, 4, gcn_rng, 5e-2);
  EXPECT_THROW(
      model.TrainEpoch(g, data.features, data.labels, data.train_rows, {all}),
      DeadlineExceededError);
}

TEST_F(KernelCancelTest, GnnEpochPollsLeaveScoresUnchanged) {
  const GnnCase c = MakeGnnCase();
  const Graph& g = c.graph;
  const NodeClassificationData& data = c.data;
  Rng sage_rng(8), gcn_rng(9);
  const double sage = TrainSageAuroc(g, g, data, sage_rng);
  const double gcn = TrainClusterGcnAccuracy(g, g, data, gcn_rng);
  CancelToken token;
  token.SetDeadlineAfter(3600.0);
  CancelScope scope(&token);
  Rng polled_sage_rng(8), polled_gcn_rng(9);
  EXPECT_EQ(TrainSageAuroc(g, g, data, polled_sage_rng), sage);
  EXPECT_EQ(TrainClusterGcnAccuracy(g, g, data, polled_gcn_rng), gcn);
}

TEST_F(KernelCancelTest, NestedParallelForPropagatesTheCallerToken) {
  CancelToken token;
  token.Cancel();
  CancelScope scope(&token);
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  // Every index is checked before fn runs, on the caller AND on helper
  // workers (which re-install the caller's ambient token).
  EXPECT_THROW(NestedParallelFor(&pool, 64,
                                 [&](size_t) {
                                   executed.fetch_add(
                                       1, std::memory_order_relaxed);
                                 }),
               CancelledError);
  EXPECT_EQ(executed.load(), 0);
}

// ---------------------------------------------------------------------------
// Conformance: every registry sparsifier's PrepareScores and every registry
// metric observes an expired stage token, and its polls change no result.
// ---------------------------------------------------------------------------

// A registry graph and an RN subgraph of it. Tests fetch them before
// installing a token: building them polls too.
struct ConformanceGraphs {
  Graph g;
  Graph h;
};

const ConformanceGraphs& RegistryGraphs() {
  static const ConformanceGraphs* graphs = [] {
    Graph g = LoadDatasetScaled("ego-Facebook", 0.1).graph;
    Rng rng(7);
    Graph h = CreateSparsifier("RN")->Sparsify(g, 0.5, rng);
    return new ConformanceGraphs{std::move(g), std::move(h)};
  }();
  return *graphs;
}

std::string RegistryName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

// Prepares `name`'s scores on g and masks them at prune rate 0.5 (or 0
// for a sparsifier without rate control).
RateMask PrepareAndMask(const std::string& name, const Graph& g) {
  std::unique_ptr<Sparsifier> sparsifier = CreateSparsifier(name);
  Rng rng(11);
  std::unique_ptr<ScoreState> state = sparsifier->PrepareScores(g, rng);
  const bool fixed =
      sparsifier->Info().prune_rate_control == PruneRateControl::kNone;
  return sparsifier->MaskForRate(*state, fixed ? 0.0 : 0.5);
}

class SparsifierConformanceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SparsifierConformanceTest, PrepareScoresObservesAnExpiredToken) {
  const Graph& g = RegistryGraphs().g;
  CancelToken token;
  token.SetDeadlineAfter(-1.0);
  CancelScope scope(&token);
  EXPECT_THROW(PrepareAndMask(GetParam(), g), DeadlineExceededError);
}

TEST_P(SparsifierConformanceTest, PollsLeaveScoresUnchanged) {
  const Graph& g = RegistryGraphs().g;
  const RateMask plain = PrepareAndMask(GetParam(), g);
  CancelToken token;
  token.SetDeadlineAfter(3600.0);
  CancelScope scope(&token);
  const RateMask polled = PrepareAndMask(GetParam(), g);
  EXPECT_EQ(polled.keep, plain.keep);
  EXPECT_EQ(polled.new_weights, plain.new_weights);
}

INSTANTIATE_TEST_SUITE_P(Registry, SparsifierConformanceTest,
                         ::testing::ValuesIn(SparsifierNames()),
                         RegistryName);

// `isolated` has no poll: it is one O(n) pass over the degree offsets
// (Graph::CountIsolated), no more work than building the subgraph it
// reads, so it ends before any poll could matter.
bool PollExempt(const std::string& metric) { return metric == "isolated"; }

double EvaluateRegistryMetric(const std::string& name,
                              const ConformanceGraphs& graphs) {
  Rng rng(13);
  return EvaluateMetric(cli::FindMetric(name), graphs.g, graphs.h, rng);
}

class MetricConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MetricConformanceTest, EvaluateMetricObservesAnExpiredToken) {
  const ConformanceGraphs& graphs = RegistryGraphs();
  CancelToken token;
  token.SetDeadlineAfter(-1.0);
  CancelScope scope(&token);
  if (PollExempt(GetParam())) {
    EXPECT_NO_THROW(EvaluateRegistryMetric(GetParam(), graphs));
  } else {
    EXPECT_THROW(EvaluateRegistryMetric(GetParam(), graphs),
                 DeadlineExceededError);
  }
}

TEST_P(MetricConformanceTest, PollsLeaveValuesUnchanged) {
  const ConformanceGraphs& graphs = RegistryGraphs();
  const double plain = EvaluateRegistryMetric(GetParam(), graphs);
  CancelToken token;
  token.SetDeadlineAfter(3600.0);
  CancelScope scope(&token);
  const double polled = EvaluateRegistryMetric(GetParam(), graphs);
  EXPECT_EQ(std::memcmp(&polled, &plain, sizeof(double)), 0)
      << polled << " vs " << plain;
}

INSTANTIATE_TEST_SUITE_P(Registry, MetricConformanceTest,
                         ::testing::ValuesIn(cli::MetricNames()),
                         RegistryName);

// ---------------------------------------------------------------------------
// ThreadPool Stop(drain | abandon)
// ---------------------------------------------------------------------------

TEST(ThreadPoolStopTest, DrainRunsEverythingQueued) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Stop(ThreadPool::StopMode::kDrain);
  EXPECT_EQ(counter.load(), 50);
  EXPECT_THROW(pool.Submit([] {}), std::logic_error);
}

TEST(ThreadPoolStopTest, AbandonDropsQueuedTasksUnrun) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> counter{0};
  // Block both workers so the 50 counter tasks stay queued, then Stop:
  // the queue is cleared synchronously before the workers are released,
  // so none of the queued tasks can ever run.
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&] {
      while (!release.load(std::memory_order_acquire)) SleepMs(1);
    });
  }
  SleepMs(20);  // let the workers pick the blockers up
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  std::thread releaser([&] {
    SleepMs(50);
    release.store(true, std::memory_order_release);
  });
  pool.Stop(ThreadPool::StopMode::kAbandon);
  releaser.join();
  // Once Stop returned, no task is running or will ever run.
  EXPECT_EQ(counter.load(), 0);
  EXPECT_THROW(pool.Submit([] {}), std::logic_error);
}

// ---------------------------------------------------------------------------
// hang failpoint
// ---------------------------------------------------------------------------

class HangFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::DisarmAll(); }
};

TEST_F(HangFailpointTest, HangReleasesWhenDisarmed) {
  fail::ArmFromSpec("test.hang_site=hang");
  std::thread disarmer([] {
    SleepMs(100);
    fail::DisarmAll();
  });
  // Blocks ~100ms, then continues as if nothing happened (no token).
  EXPECT_NO_THROW(SPARSIFY_FAILPOINT("test.hang_site"));
  disarmer.join();
}

TEST_F(HangFailpointTest, HangReleasesWhenTheAmbientTokenTrips) {
  fail::ArmFromSpec("test.hang_site=hang");
  CancelToken token;
  CancelScope scope(&token);
  std::thread canceller([&] {
    SleepMs(100);
    token.Cancel();
  });
  EXPECT_THROW(SPARSIFY_FAILPOINT("test.hang_site"), CancelledError);
  canceller.join();
}

// ---------------------------------------------------------------------------
// Signal bridge
// ---------------------------------------------------------------------------

TEST(SignalCancelTest, FirstSignalCancelsTheToken) {
  CancelToken token;
  InstallSignalCancel(&token);
  EXPECT_EQ(SignalCancelSigno(), 0);
  ::raise(SIGTERM);  // delivered synchronously to this thread
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.reason(), CancelToken::Reason::kCancelled);
  EXPECT_EQ(SignalCancelSigno(), SIGTERM);
  ClearSignalCancel();
}

// ---------------------------------------------------------------------------
// Engine contracts: stage timeouts and run-level cancellation
// ---------------------------------------------------------------------------

BatchMetricFn SampledMetric() {
  return [](const Graph& g, const Graph& h, Rng& rng) {
    return QuadraticFormSimilarity(g, h, 5, rng);
  };
}

SweepConfig TestConfig() {
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.runs_nondeterministic = 2;
  config.seed = 321;
  return config;
}

void ExpectSeriesBitIdentical(const std::vector<SweepSeries>& a,
                              const std::vector<SweepSeries>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].sparsifier, b[s].sparsifier);
    ASSERT_EQ(a[s].points.size(), b[s].points.size());
    for (size_t p = 0; p < a[s].points.size(); ++p) {
      EXPECT_EQ(a[s].points[p].mean, b[s].points[p].mean);
      EXPECT_EQ(a[s].points[p].stddev, b[s].points[p].stddev);
      EXPECT_EQ(a[s].points[p].runs, b[s].points[p].runs);
    }
  }
}

class EngineCancelTest : public ::testing::Test {
 protected:
  EngineCancelTest()
      : graph_(LoadDatasetScaled("ego-Facebook", 0.1).graph), runner_(2) {}
  void TearDown() override { fail::DisarmAll(); }

  std::vector<BatchMetric> TwoMetrics() {
    return {BatchMetric{"m_good", SampledMetric()},
            BatchMetric{"m_bad", SampledMetric()}};
  }

  Graph graph_;
  BatchRunner runner_;
};

TEST_F(EngineCancelTest, StageTimeoutFailsAUnitAloneAsDeadlineErrorRecord) {
  std::string dir = TestPath("deadline_store");
  SweepConfig config = TestConfig();

  // Cold reference, no store, no faults.
  ResumableSweep cold(runner_, nullptr, "test-rev");
  auto reference =
      cold.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, nullptr);

  // Every m_bad unit wedges until its own deadline fires; m_good units
  // on the SAME cells must complete untouched.
  fail::ArmFromSpec("engine.metric_unit/m_bad=hang");
  auto store = std::make_unique<ResultStore>(dir);
  ResumableSweep sweep(runner_, store.get(), "test-rev");
  sweep.set_stage_timeout(0.05);
  ResumableSweepStats stats;
  auto out = sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &stats);

  const size_t cells = stats.total_cells / 2;  // two metrics
  EXPECT_EQ(stats.failed_units, cells);
  EXPECT_EQ(stats.deadline_exceeded_units, cells);
  EXPECT_EQ(stats.cancelled_units, 0u);
  EXPECT_EQ(stats.transient_failed_units, 0u);
  EXPECT_EQ(store->ErrorCount(), cells);
  for (const StoredCell& cell : store->Cells()) {
    if (!cell.is_error) continue;
    EXPECT_EQ(cell.key.metric, "m_bad");
    EXPECT_EQ(cell.error_class, "deadline");
    EXPECT_EQ(cell.error_message, "metric_unit m_bad: stage timeout 0.05s");
    EXPECT_EQ(cell.attempts, 1);  // a deadline unit never retries
  }
  ASSERT_EQ(out.size(), 2u);
  ExpectSeriesBitIdentical(out[0].series, reference[0].series);

  // Un-wedge and resume: exactly the timed-out units are resubmitted and
  // the healed sweep is bit-identical to the cold run.
  fail::DisarmAll();
  ResumableSweep resume(runner_, store.get(), "test-rev");
  resume.set_stage_timeout(0.05);
  ResumableSweepStats resume_stats;
  auto healed =
      resume.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &resume_stats);
  EXPECT_EQ(resume_stats.submitted_cells, cells);
  EXPECT_EQ(resume_stats.failed_units, 0u);
  EXPECT_EQ(store->ErrorCount(), 0u);
  ExpectSeriesBitIdentical(healed[0].series, reference[0].series);
  ExpectSeriesBitIdentical(healed[1].series, reference[1].series);
}

TEST_F(EngineCancelTest, RunCancellationLeavesStoreResumableBitIdentically) {
  std::string dir = TestPath("cancel_store");
  SweepConfig config = TestConfig();

  ResumableSweep cold(runner_, nullptr, "test-rev");
  auto reference =
      cold.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, nullptr);

  // Single-threaded runner: the progress callback cancels the run token
  // after two units, so the remaining units are deterministically still
  // queued and must be skipped with NO store record.
  BatchRunner serial(1);
  auto store = std::make_unique<ResultStore>(dir);
  CancelToken run_token;
  ResumableSweep sweep(serial, store.get(), "test-rev");
  sweep.set_cancel_token(&run_token);
  sweep.set_progress([&](size_t done, size_t) {
    if (done >= 2) run_token.Cancel();
  });
  ResumableSweepStats stats;
  sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &stats);

  EXPECT_GE(stats.cancelled_units, 1u);
  EXPECT_EQ(stats.failed_units, 0u);
  // Cancelled units are NOT failures: no error records, store replays
  // clean, and the skipped units simply read back as missing.
  EXPECT_EQ(store->ErrorCount(), 0u);
  EXPECT_LT(store->Cells().size(), stats.total_cells);

  // Resume with a fresh (untripped) run: exactly the not-yet-done units
  // are submitted and the result matches the cold run bit-for-bit.
  ResumableSweep resume(runner_, store.get(), "test-rev");
  ResumableSweepStats resume_stats;
  auto healed =
      resume.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &resume_stats);
  EXPECT_EQ(resume_stats.cached_cells,
            stats.total_cells - stats.cancelled_units);
  EXPECT_EQ(resume_stats.submitted_cells, stats.cancelled_units);
  EXPECT_EQ(resume_stats.failed_units, 0u);
  ExpectSeriesBitIdentical(healed[0].series, reference[0].series);
  ExpectSeriesBitIdentical(healed[1].series, reference[1].series);
}

TEST_F(EngineCancelTest, StageCountsReportOnlyStagesThatRan) {
  // A run cancelled mid-grid must not report builds that never happened:
  // the stats' stage counts equal the run's spans and engine.* counters.
  BatchRunner serial(1);
  CancelToken run_token;
  ResumableSweep sweep(serial, nullptr, "test-rev");
  sweep.set_cancel_token(&run_token);
  sweep.set_progress([&](size_t done, size_t) {
    if (done >= 2) run_token.Cancel();
  });
  obs::ResetAllStats();
  obs::StartTracing();
  ResumableSweepStats stats;
  sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), TestConfig(), &stats);
  obs::StopTracing();

  size_t score_spans = 0, subgraph_spans = 0;
  for (const obs::TraceEvent& ev : obs::DrainTrace()) {
    if (std::string(ev.name) == "score_group") ++score_spans;
    if (std::string(ev.name) == "subgraph") ++subgraph_spans;
  }
  uint64_t score_counter = 0, subgraph_counter = 0;
  for (const obs::CounterValue& cv : obs::SnapshotCounters()) {
    if (cv.name == "engine.score_groups") score_counter = cv.value;
    if (cv.name == "engine.subgraph_builds") subgraph_counter = cv.value;
  }
  EXPECT_GE(stats.cancelled_units, 1u);
  EXPECT_GE(stats.subgraph_builds, 1u);
  EXPECT_LT(stats.subgraph_builds,
            BatchRunner::ExpandGrid(ToBatchSpec(TestConfig())).size());
  EXPECT_EQ(stats.subgraph_builds, subgraph_spans);
  EXPECT_EQ(stats.subgraph_builds, subgraph_counter);
  EXPECT_EQ(stats.score_groups, score_spans);
  EXPECT_EQ(stats.score_groups, score_counter);
}

}  // namespace
}  // namespace sparsify
