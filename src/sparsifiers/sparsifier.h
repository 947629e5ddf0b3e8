// Sparsifier interface and registry.
//
// A sparsifier maps a graph G = (V, E) to a subgraph H = (V, E') with
// |E'| = (1 - rho) |E| for a requested prune rate rho (paper Definition 1).
// Vertices are never removed.
//
// The interface is two-phase (see README.md in this directory):
//
//   PrepareScores(g, rng) -> ScoreState   the expensive part: degree
//       rankings, similarity scores, effective resistances, spanner /
//       forest structure. The ONLY phase that may consume the Rng.
//   MaskForRate(state, rho) -> RateMask   cheap thresholding of the state
//       at one prune rate. Deterministic, const, and re-entrant: the sweep
//       engine calls it concurrently for many rates on one shared state.
//
// `Sparsify()` is a thin wrapper (prepare once, mask once) kept so
// single-rate call sites stay valid. The paper's sweep protocol evaluates
// every sparsifier at 9 prune rates; the batch engine prepares each
// (sparsifier, run) group's state once and fans the rate axis out as
// near-free MaskForRate tasks (src/engine/batch_runner.h).
//
// The registry carries the per-algorithm capability metadata of the paper's
// Table 2 (directed/weighted/unconnected support, prune-rate control,
// weight changes, determinism, complexity) so that `bench_tables` can
// regenerate the table from code.
#ifndef SPARSIFY_SPARSIFIERS_SPARSIFIER_H_
#define SPARSIFY_SPARSIFIERS_SPARSIFIER_H_

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace sparsify {

/// Granularity of prune-rate control (Table 2 "PRC" column).
enum class PruneRateControl {
  kFine,        // any rho in (0, 1) is achievable (up to rounding)
  kConstrained, // controllable via a coarse knob or with an upper limit
  kNone,        // output size fixed by the algorithm (SF, SP-t)
};

/// Static description of a sparsification algorithm (Table 2 row).
struct SparsifierInfo {
  std::string name;        // e.g. "Local Degree"
  std::string short_name;  // e.g. "LD"
  bool supports_directed = false;
  bool supports_weighted = false;
  bool supports_unconnected = false;
  PruneRateControl prune_rate_control = PruneRateControl::kFine;
  bool changes_weights = false;
  bool deterministic = false;
  std::string complexity;  // informal big-O string for the table
  // True for algorithms beyond the paper's Table 2 (this framework's
  // extension set); Table 2 regeneration lists them separately.
  bool extension = false;
};

/// Opaque result of a sparsifier's scoring phase. Each algorithm derives
/// its own state type; states may hold a pointer to the scored graph, so a
/// state must not outlive the Graph it was prepared on.
class ScoreState {
 public:
  virtual ~ScoreState() = default;
};

/// Downcast helper with a diagnosable failure mode: passing one
/// algorithm's state to another algorithm's MaskForRate is a caller bug.
template <typename T>
const T& StateAs(const ScoreState& state, const char* who) {
  const T* typed = dynamic_cast<const T*>(&state);
  if (typed == nullptr) {
    throw std::invalid_argument(std::string(who) +
                                ": ScoreState of the wrong type (state must "
                                "come from this sparsifier's PrepareScores)");
  }
  return *typed;
}

/// Keep-decision for one prune rate. `new_weights` is empty except for
/// weight-changing algorithms (ER-weighted), where it is indexed by the
/// original canonical edge id like Graph::ReweightedSubgraph expects.
struct RateMask {
  std::vector<uint8_t> keep;
  std::vector<double> new_weights;
};

/// ScoreState of the "score every edge once, keep the global top-k" family
/// (RN, FF, GS, SCAN, LSim, TRI, SIMM, ALG). Shared so their MaskForRate
/// is one common KeepTopScoring call.
class EdgeScoreState : public ScoreState {
 public:
  explicit EdgeScoreState(std::vector<double> scores)
      : scores_(std::move(scores)) {}
  const std::vector<double>& scores() const { return scores_; }

 private:
  std::vector<double> scores_;
};

/// ScoreState of algorithms without prune-rate control (SF, SP-t): the
/// keep-mask itself, returned unchanged at every rate.
class FixedMaskState : public ScoreState {
 public:
  explicit FixedMaskState(std::vector<uint8_t> keep)
      : keep_(std::move(keep)) {}
  const std::vector<uint8_t>& keep() const { return keep_; }

 private:
  std::vector<uint8_t> keep_;
};

/// Base class for all registered sparsification algorithms.
class Sparsifier {
 public:
  virtual ~Sparsifier() = default;

  virtual const SparsifierInfo& Info() const = 0;

  /// Phase 1: scores the graph. This is the expensive part and the only
  /// phase that may draw from `rng` (deterministic algorithms ignore it).
  /// The returned state may reference `g`; it must not outlive it.
  ///
  /// Directed inputs to undirected-only algorithms (SF, SP-t, ER, SIMM,
  /// ALG) are the caller's responsibility to symmetrize first (paper
  /// section 3.1); such algorithms throw std::invalid_argument here.
  virtual std::unique_ptr<ScoreState> PrepareScores(const Graph& g,
                                                    Rng& rng) const = 0;

  /// Phase 2: thresholds `state` at one prune rate. Deterministic, cheap,
  /// and re-entrant — the engine invokes it concurrently for many rates on
  /// one shared state, so implementations must not mutate the state.
  /// `prune_rate` is the requested fraction of edges to REMOVE
  /// (Definition 1) and must be in [0, 1) unless Info() says kNone;
  /// algorithms with coarse control get as close as their knob allows.
  virtual RateMask MaskForRate(const ScoreState& state,
                               double prune_rate) const = 0;

  /// Returns the sparsified graph over the same vertex set: a thin
  /// prepare-once, mask-once wrapper over the two-phase interface.
  /// Virtual only so algorithms with a rate-dependent fast path can skip
  /// the scoring phase for the single-rate call (ER returns `g` unchanged
  /// when the target keeps every edge, without paying for its Laplacian
  /// solves); overrides must stay semantically equal to the default.
  virtual Graph Sparsify(const Graph& g, double prune_rate, Rng& rng) const;

  /// Materializes a RateMask against the graph the state was prepared on.
  static Graph Apply(const Graph& g, const RateMask& mask);

  /// Achieved prune rate of `sparsified` relative to `original`.
  static double AchievedPruneRate(const Graph& original,
                                  const Graph& sparsified);
};

/// Short names of all registered sparsifiers. The paper's Table 2 set
/// comes first (RN, KN, RD, LD, SF, SP-3, SP-5, SP-7, FF, LS, GS, LSim,
/// SCAN, ER-uw, ER-w; SP-t registered once per stretch factor, ER once per
/// weight variant), followed by this framework's extensions (TRI, SIMM,
/// ALG, LS-MH) — filter on SparsifierInfo::extension to separate them.
std::vector<std::string> SparsifierNames();

/// Creates a sparsifier by short name (see SparsifierNames). Throws
/// std::invalid_argument for unknown names.
std::unique_ptr<Sparsifier> CreateSparsifier(const std::string& short_name);

/// Info rows for every registered sparsifier (regenerates Table 2).
std::vector<SparsifierInfo> AllSparsifierInfos();

/// Helper shared by edge-scoring sparsifiers: keeps the `target_keep`
/// highest-scoring canonical edges (ties broken by edge id). Returns the
/// keep-mask.
std::vector<uint8_t> KeepTopScoring(const std::vector<double>& scores,
                                    EdgeId target_keep);

/// MaskForRate of the EdgeScoreState family: global top TargetKeepCount
/// edges by score.
RateMask MaskFromScores(const EdgeScoreState& state, double prune_rate);

/// Throws std::invalid_argument unless 0 <= prune_rate < 1 (so NaN
/// throws too).
void CheckPruneRate(double prune_rate);

/// Number of edges to keep for a prune rate: round((1-rho)|E|), clamped to
/// [0, |E|]. Checks the rate with CheckPruneRate.
EdgeId TargetKeepCount(EdgeId num_edges, double prune_rate);

}  // namespace sparsify

#endif  // SPARSIFY_SPARSIFIERS_SPARSIFIER_H_
