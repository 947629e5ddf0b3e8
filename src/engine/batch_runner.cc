#include "src/engine/batch_runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/errors.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace sparsify {
namespace {

std::string FormatRate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", rate);
  return buf;
}

// Backoff before transient-failure retry `attempt` (1-based count of
// attempts already made): 1ms doubling, capped at 100ms. A transient
// fault (contended resource, injected flake) usually clears fast; the
// cap keeps a retried batch from stalling a worker for long.
std::chrono::milliseconds RetryBackoff(int attempt) {
  uint64_t ms = 1ULL << std::min(attempt - 1, 20);
  return std::chrono::milliseconds(std::min<uint64_t>(ms, 100));
}

uint64_t SplitMix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// FNV-1a step over one identity string, closed with a fold of its LENGTH —
// a boundary no byte content can forge, so ("ab", "c") never collides with
// ("a", "bc") even for names holding arbitrary bytes.
void FoldString(uint64_t& h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  h ^= s.size() + 0x9e3779b97f4a7c15ULL;
  h *= 1099511628211ULL;
}

// Adds to a BatchRunStats field that stages on every worker update.
template <typename T>
void AtomicAdd(T& field, T delta) {
  std::atomic_ref<T>(field).fetch_add(delta, std::memory_order_relaxed);
}

// The engine's four stages. References and score groups are queued up
// front; subgraphs follow their group, metric units their subgraph and, for
// two-phase metrics, their reference.
enum Stage { kReference, kScoreGroup, kSubgraph, kMetricUnit, kNumStages };

// What a stage reports to: its span name, its failpoint site, and the
// BatchRunStats fields it sums into (metric units have no run count:
// metric_units is the number scheduled).
struct StageSite {
  const char* name;
  const char* failpoint;
  size_t BatchRunStats::*run_count;
  double BatchRunStats::*run_seconds;
};

constexpr StageSite kSites[kNumStages] = {
    {"reference", "engine.reference", &BatchRunStats::reference_stages,
     &BatchRunStats::reference_seconds},
    {"score_group", "engine.score_group", &BatchRunStats::score_groups,
     &BatchRunStats::score_seconds},
    {"subgraph", "engine.subgraph", &BatchRunStats::subgraph_builds,
     &BatchRunStats::subgraph_seconds},
    {"metric_unit", "engine.metric_unit", nullptr,
     &BatchRunStats::metric_seconds}};

// How a caught failure ends its units. `run_cancelled` marks a
// cancellation of the run itself: not a failure, nothing is recorded, and
// a resumed sweep resubmits the units.
struct Failure {
  bool run_cancelled = false;
  std::string error_class;  // see FaultPolicy
  std::string message;
};

// Everything one stage execution carries, acquired in this order and
// released in reverse: the trace span with its detail and cell args, the
// stage's own cancel token (chained under the run token, with a deadline
// `timeout_seconds` from now unless that is 0), installed as the ambient
// token its kernels poll, and the timer whose reading feeds the stage's
// run stats on exit. A stage that runs past its timeout stops at its
// next poll and fails alone as a deadline.
// A reference stage names no cell, so its span carries no cell args.
// Only stages that actually start construct one, so every count equals
// the stage's spans. Failpoint() fires the stage's scoped failpoint; call
// it inside the stage's try so an injected fault takes the same path as a
// real one.
class StageScope {
 public:
  // `detail` must outlive the scope.
  StageScope(Stage stage, const std::string& detail, const BatchTask* task,
             const CancelToken& run_token, double timeout_seconds,
             BatchRunStats& run)
      : site_(kSites[stage]),
        detail_(detail),
        timeout_seconds_(timeout_seconds),
        span_(site_.name),
        token_(&run_token),
        cancel_(&token_),
        run_(run) {
    ArmTimeout();
    if (span_.active()) {
      span_.Detail(detail);
      if (task != nullptr) {
        if (stage == kMetricUnit) span_.Arg("sparsifier", task->sparsifier);
        if (stage != kScoreGroup) {
          span_.Arg("rate", FormatRate(task->prune_rate));
        }
        span_.Arg("run", std::to_string(task->run));
      }
    }
  }

  ~StageScope() {
    if (site_.run_count != nullptr) {
      AtomicAdd(run_.*site_.run_count, size_t{1});
    }
    AtomicAdd(run_.*site_.run_seconds, timer_.Seconds());
  }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  void Failpoint() const {
    SPARSIFY_FAILPOINT_SCOPED(site_.failpoint, detail_.c_str());
  }

  // Gives the stage a fresh timeout; a metric unit re-arms it for each
  // attempt.
  void ArmTimeout() {
    if (timeout_seconds_ > 0) token_.SetDeadlineAfter(timeout_seconds_);
  }

  // The failure `f` this stage caught, as recorded: when the stage's own
  // timeout fired, the message names the stage, its detail and the
  // budget, e.g. "score_group LD: stage timeout 1s".
  Failure Named(Failure f) const {
    if (f.error_class == "deadline" &&
        token_.reason() == CancelToken::Reason::kDeadline) {
      std::ostringstream message;
      message << site_.name << ' ' << detail_ << ": stage timeout "
              << timeout_seconds_ << 's';
      f.message = message.str();
    }
    return f;
  }

 private:
  const StageSite& site_;
  const std::string& detail_;
  const double timeout_seconds_;
  obs::ScopedSpan span_;
  CancelToken token_;
  CancelScope cancel_;
  Timer timer_;
  BatchRunStats& run_;
};

// The engine's one failure classifier, shared by every stage.
Failure ClassifyFailure(std::exception_ptr error, bool run_cancelled) {
  try {
    std::rethrow_exception(error);
  } catch (const CancelledError& e) {  // DeadlineExceededError included
    if (run_cancelled) return {true, "cancelled", e.what()};
    bool deadline = dynamic_cast<const DeadlineExceededError*>(&e) != nullptr;
    return {false, deadline ? "deadline" : "cancelled", e.what()};
  } catch (const TransientError& e) {
    return {false, "transient", e.what()};
  } catch (const std::exception& e) {
    return {false, "permanent", e.what()};
  } catch (...) {
    return {false, "permanent", "unknown error"};
  }
}

}  // namespace

struct BatchRunner::Impl {
  explicit Impl(int num_threads) : pool(num_threads) {}
  // Serializes runs: the pool's completion tracking is batch-global, so two
  // concurrent batches would wait on (and steal errors from) each other.
  std::mutex run_mu;
  mutable ThreadPool pool;
};

BatchRunner::BatchRunner(int num_threads)
    : impl_(std::make_unique<Impl>(num_threads)) {}

BatchRunner::~BatchRunner() = default;

int BatchRunner::NumThreads() const { return impl_->pool.NumThreads(); }

double BatchRunner::PoolBusySeconds() const {
  return impl_->pool.BusySeconds();
}

void BatchRunner::ResetPoolBusySeconds() { impl_->pool.ResetBusySeconds(); }

uint64_t BatchRunner::GroupSeed(uint64_t master_seed,
                                const std::string& sparsifier, int run) {
  // FNV-1a over the name, folded with the run index, then a SplitMix64
  // finalizer. Intentionally independent of grid shape and cell indices:
  // any subset of a group's rate cells prepares the same ScoreState.
  uint64_t h = 1469598103934665603ULL;
  for (char c : sparsifier) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  h += (static_cast<uint64_t>(run) + 1) * 0x9e3779b97f4a7c15ULL;
  return SplitMix(master_seed ^ SplitMix(h));
}

uint64_t BatchRunner::MetricSeed(uint64_t master_seed,
                                 const std::string& dataset,
                                 const std::string& sparsifier,
                                 double prune_rate, int run,
                                 const std::string& metric) {
  // FNV-1a over every identity component; the rate enters via its
  // IEEE-754 bits (grid rates are exact values, so bitwise identity is the
  // right equality). Like GroupSeed, this is intentionally independent of
  // grid shape, of the submitted subset, and of the metric-set
  // composition.
  uint64_t h = 1469598103934665603ULL;
  FoldString(h, dataset);
  FoldString(h, sparsifier);
  FoldString(h, metric);
  uint64_t rate_bits = 0;
  static_assert(sizeof(rate_bits) == sizeof(prune_rate));
  std::memcpy(&rate_bits, &prune_rate, sizeof(rate_bits));
  h ^= SplitMix(rate_bits);
  h *= 1099511628211ULL;
  h += (static_cast<uint64_t>(run) + 1) * 0x9e3779b97f4a7c15ULL;
  return SplitMix(master_seed ^ SplitMix(h));
}

uint64_t BatchRunner::ReferenceSeed(uint64_t master_seed,
                                    const std::string& dataset,
                                    const std::string& metric) {
  // Two strings and a domain constant: no MetricSeed input folds to the
  // same sequence, since MetricSeed folds three strings and a rate.
  uint64_t h = 1469598103934665603ULL;
  FoldString(h, dataset);
  FoldString(h, metric);
  h ^= 0x726566657265ULL;  // "refere"
  h *= 1099511628211ULL;
  return SplitMix(master_seed ^ SplitMix(h));
}

double EvaluateMetric(const BatchMetric& metric, const Graph& original,
                      const Graph& sparsified, Rng& rng) {
  if (!metric.prepare) return metric.fn(original, sparsified, rng);
  Rng ref_rng = rng.Fork();
  return metric.prepare(original, ref_rng)(sparsified, rng);
}

BatchRunStats& BatchRunStats::operator+=(const BatchRunStats& other) {
  cells += other.cells;
  metric_units += other.metric_units;
  score_groups += other.score_groups;
  reference_stages += other.reference_stages;
  subgraph_builds += other.subgraph_builds;
  failed_units += other.failed_units;
  transient_failed_units += other.transient_failed_units;
  deadline_exceeded_units += other.deadline_exceeded_units;
  cancelled_units += other.cancelled_units;
  retried_units += other.retried_units;
  score_seconds += other.score_seconds;
  reference_seconds += other.reference_seconds;
  subgraph_seconds += other.subgraph_seconds;
  metric_seconds += other.metric_seconds;
  return *this;
}

std::vector<BatchTask> BatchRunner::ExpandGrid(const BatchSpec& spec) {
  // Every rate, even one only rate-free sparsifiers would skip: a bad
  // rate fails the grid before any work starts or any record is stored.
  for (double rate : spec.prune_rates) CheckPruneRate(rate);
  std::vector<std::string> names =
      spec.sparsifiers.empty() ? SparsifierNames() : spec.sparsifiers;
  std::vector<BatchTask> tasks;
  for (const std::string& name : names) {
    SparsifierInfo info = CreateSparsifier(name)->Info();
    bool fixed_output = info.prune_rate_control == PruneRateControl::kNone;
    std::vector<double> rates =
        fixed_output ? std::vector<double>{0.0} : spec.prune_rates;
    int runs = info.deterministic ? 1 : std::max(1, spec.runs);
    for (double rate : rates) {
      for (int run = 0; run < runs; ++run) {
        BatchTask task;
        task.index = tasks.size();
        task.sparsifier = name;
        task.prune_rate = rate;
        task.run = run;
        tasks.push_back(std::move(task));
      }
    }
  }
  return tasks;
}

BatchRunStats BatchRunner::RunTasksMulti(
    const Graph& g, const std::string& dataset,
    const std::vector<BatchTask>& tasks, uint64_t master_seed,
    const std::vector<BatchMetric>& metrics,
    const MetricResultCallback& on_result, const FaultPolicy& faults) const {
  if (metrics.empty()) {
    throw std::invalid_argument("RunTasksMulti: metric list is empty");
  }
  std::lock_guard<std::mutex> run_lock(impl_->run_mu);

  // Each cell's input graph: g, or the symmetrized copy for sparsifiers
  // without directed support. Symmetrize once if any selected sparsifier
  // needs it; the copy is shared read-only across workers like the
  // original.
  std::optional<Graph> symmetrized;
  std::unordered_map<std::string, const Graph*> input_for;
  std::vector<const Graph*> input_of(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    auto [it, inserted] = input_for.try_emplace(tasks[i].sparsifier, &g);
    if (inserted && g.IsDirected() &&
        !CreateSparsifier(tasks[i].sparsifier)->Info().supports_directed) {
      if (!symmetrized) symmetrized.emplace(g.Symmetrized());
      it->second = &*symmetrized;
    }
    input_of[i] = it->second;
  }

  // Resolve each task's metric-id list (empty = every metric).
  std::vector<uint32_t> all_ids(metrics.size());
  for (uint32_t m = 0; m < metrics.size(); ++m) all_ids[m] = m;
  std::vector<const std::vector<uint32_t>*> ids_of(tasks.size());
  BatchRunStats run;
  run.cells = tasks.size();
  for (size_t i = 0; i < tasks.size(); ++i) {
    const std::vector<uint32_t>& ids =
        tasks[i].metrics.empty() ? all_ids : tasks[i].metrics;
    for (uint32_t m : ids) {
      if (m >= metrics.size()) {
        throw std::invalid_argument(
            "RunTasksMulti: task names out-of-range metric id");
      }
    }
    ids_of[i] = &ids;
    run.metric_units += ids.size();
  }

  // Per-cell shared state for the metric fan-out: the materialized
  // subgraph, freed by the cell's last metric unit, and its achieved rate,
  // written once before the cell's units are submitted.
  std::vector<std::optional<Graph>> cell_graph(tasks.size());
  std::vector<double> achieved(tasks.size());
  std::vector<std::atomic<size_t>> units_left(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    units_left[i].store(ids_of[i]->size(), std::memory_order_relaxed);
  }

  // Group the cells by (sparsifier, run): one ScoreState per group, shared
  // read-only across that group's rate cells. std::map keeps group order
  // deterministic (not that it matters numerically — every group's RNG
  // stream derives from its own GroupSeed).
  struct Group {
    const BatchTask* first = nullptr;  // names the group: sparsifier, run
    const Graph* input = nullptr;
    std::unique_ptr<Sparsifier> instance;
    std::unique_ptr<ScoreState> state;
    std::vector<size_t> cells;
    std::atomic<size_t> cells_left{0};
  };
  std::deque<Group> groups;  // atomics pin groups in place
  std::map<std::pair<std::string, int>, size_t> group_index;
  for (size_t i = 0; i < tasks.size(); ++i) {
    auto key = std::make_pair(tasks[i].sparsifier, tasks[i].run);
    auto [it, inserted] = group_index.try_emplace(key, groups.size());
    if (inserted) {
      Group& group = groups.emplace_back();
      group.first = &tasks[i];
      group.input = input_of[i];
      group.instance = CreateSparsifier(tasks[i].sparsifier);
    }
    groups[it->second].cells.push_back(i);
  }
  for (Group& group : groups) {
    group.cells_left.store(group.cells.size(), std::memory_order_relaxed);
  }

  // One reference per (two-phase metric, input graph) that some submitted
  // unit needs. It holds the evaluator its units call, or the failure that
  // ends them, and the units parked until it lands. `landed` flips once,
  // under `mu`, after which the other fields are read-only.
  struct Reference {
    uint32_t metric = 0;
    const Graph* input = nullptr;
    MetricEvaluator evaluate;
    std::optional<Failure> failure;
    std::mutex mu;
    bool landed = false;
    std::vector<std::pair<size_t, size_t>> parked;  // (cell, slot)
  };
  std::deque<Reference> references;  // mutexes pin references in place
  // Slot 2m holds metric m's reference on g, 2m+1 on the symmetrized copy.
  std::vector<Reference*> reference_at(2 * metrics.size(), nullptr);
  auto reference_of = [&](size_t i, size_t slot) -> Reference*& {
    return reference_at[2 * (*ids_of[i])[slot] + (input_of[i] != &g)];
  };
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (size_t slot = 0; slot < ids_of[i]->size(); ++slot) {
      const uint32_t m = (*ids_of[i])[slot];
      Reference*& ref = reference_of(i, slot);
      if (!metrics[m].prepare || ref != nullptr) continue;
      ref = &references.emplace_back();
      ref->metric = m;
      ref->input = input_of[i];
    }
  }

  // The engine's own run token, parented to the caller's (which may be
  // null): queued stages check it before starting, running ones poll it
  // through their stage token.
  CancelToken run_token(faults.cancel);
  auto classify = [&](const StageScope& stage, std::exception_ptr error) {
    return stage.Named(ClassifyFailure(error, run_token.Cancelled()));
  };
  const double timeout = faults.stage_timeout_seconds;
  const Failure skipped{true, "cancelled", "run cancelled"};

  // Ends slots [begin, end) of cell i without a value. A run cancellation
  // is counted but never reported (resume resubmits the units); a failure
  // is counted and handed to on_unit_failure.
  auto end_units = [&](size_t i, size_t begin, size_t end, const Failure& f,
                       int attempts) {
    for (size_t slot = begin; slot < end; ++slot) {
      if (f.run_cancelled) {
        AtomicAdd(run.cancelled_units, size_t{1});
        continue;
      }
      AtomicAdd(run.failed_units, size_t{1});
      if (f.error_class == "transient") {
        AtomicAdd(run.transient_failed_units, size_t{1});
      }
      if (f.error_class == "deadline") {
        AtomicAdd(run.deadline_exceeded_units, size_t{1});
      }
      if (faults.on_unit_failure) {
        faults.on_unit_failure(tasks[i], (*ids_of[i])[slot], f.error_class,
                               f.message, attempts);
      }
    }
  };
  auto end_cell = [&](size_t i, const Failure& f, int attempts) {
    end_units(i, 0, ids_of[i]->size(), f, attempts);
  };

  // One (cell, metric) evaluation unit, retrying transient failures. A
  // two-phase metric's unit runs only after its reference landed; a failed
  // reference ends it the way a failed score group ends its cells.
  static const std::string kAnonymousMetric = "metric";
  auto stage_name = [](const BatchMetric& metric) -> const std::string& {
    return metric.name.empty() ? kAnonymousMetric : metric.name;
  };
  auto run_metric_unit = [&](size_t i, size_t slot) {
    if (run_token.Cancelled()) return end_units(i, slot, slot + 1, skipped, 0);
    const Reference* ref = reference_of(i, slot);
    if (ref != nullptr && ref->failure) {
      return end_units(i, slot, slot + 1, *ref->failure, 1);
    }
    const BatchTask& task = tasks[i];
    const uint32_t m = (*ids_of[i])[slot];
    const BatchMetric& metric = metrics[m];
    StageScope stage(kMetricUnit, stage_name(metric), &task, run_token,
                     timeout, run);
    double value = 0.0;
    for (int attempts = 1;; ++attempts) {
      try {
        stage.Failpoint();
        // Re-created from MetricSeed on every attempt, so a retried
        // success draws the exact samples a first-try success would.
        // (Cancellation checks never touch this stream either: an
        // interrupted-then-resumed unit is bit-identical.)
        Rng metric_rng(MetricSeed(master_seed, dataset, task.sparsifier,
                                  task.prune_rate, task.run, metric.name));
        // Expose the pool for the metric's own BFS-batch fan-out.
        SubtaskPoolScope subtasks(&impl_->pool);
        value = ref != nullptr
                    ? ref->evaluate(*cell_graph[i], metric_rng)
                    : metric.fn(*input_of[i], *cell_graph[i], metric_rng);
        break;
      } catch (...) {
        Failure f = classify(stage, std::current_exception());
        if (f.error_class == "transient" &&
            attempts <= kMaxUnitRetries) {
          AtomicAdd(run.retried_units, size_t{1});
          std::this_thread::sleep_for(RetryBackoff(attempts));
          stage.ArmTimeout();  // each attempt gets a fresh timeout
          continue;
        }
        return end_units(i, slot, slot + 1, f, attempts);
      }
    }
    // Outside the classifier: the unit succeeded, so what the consumer
    // throws (a failed store append) is not the metric's failure.
    if (on_result) on_result(task, achieved[i], m, value);
  };

  // SubmitUrgent puts a unit ahead of every queued subgraph build and
  // scoring task, so the subgraph is consumed and freed before more
  // subgraphs pile up.
  auto submit_metric_unit = [&](size_t i, size_t slot) {
    impl_->pool.SubmitUrgent([&, i, slot] {
      run_metric_unit(i, slot);
      if (units_left[i].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        cell_graph[i].reset();  // last metric frees the subgraph
      }
    });
  };

  // Fans cell i's metrics out as independent evaluation units. Called from
  // the task that materialized the cell's subgraph. A unit whose reference
  // has not landed parks on it instead; the reference stage submits it.
  auto submit_metric_units = [&](size_t i) {
    for (size_t slot = 0; slot < ids_of[i]->size(); ++slot) {
      if (Reference* ref = reference_of(i, slot)) {
        std::lock_guard<std::mutex> lock(ref->mu);
        if (!ref->landed) {
          ref->parked.emplace_back(i, slot);
          continue;
        }
      }
      submit_metric_unit(i, slot);
    }
  };

  // Prepares one reference, then releases the units parked on it. It polls
  // the run token like a score group; its failure is recorded for its
  // units to end with, not thrown at them.
  auto run_reference = [&](Reference& ref) {
    const BatchMetric& metric = metrics[ref.metric];
    if (run_token.Cancelled()) {
      ref.failure = skipped;
    } else {
      StageScope stage(kReference, stage_name(metric), nullptr, run_token,
                       timeout, run);
      try {
        stage.Failpoint();
        Rng ref_rng(ReferenceSeed(master_seed, dataset, metric.name));
        SubtaskPoolScope subtasks(&impl_->pool);
        ref.evaluate = metric.prepare(*ref.input, ref_rng);
      } catch (...) {
        ref.failure = classify(stage, std::current_exception());
      }
    }
    std::vector<std::pair<size_t, size_t>> parked;
    {
      std::lock_guard<std::mutex> lock(ref.mu);
      ref.landed = true;
      parked.swap(ref.parked);
    }
    for (auto [i, slot] : parked) submit_metric_unit(i, slot);
  };

  auto build_subgraph = [&](Group& group, size_t i) {
    if (run_token.Cancelled()) return end_cell(i, skipped, 0);
    const BatchTask& task = tasks[i];
    {
      StageScope stage(kSubgraph, task.sparsifier, &task, run_token,
                       timeout, run);
      try {
        stage.Failpoint();
        RateMask mask = group.instance->MaskForRate(*group.state,
                                                    task.prune_rate);
        Graph sparsified = Sparsifier::Apply(*group.input, mask);
        achieved[i] = Sparsifier::AchievedPruneRate(*group.input, sparsified);
        cell_graph[i].emplace(std::move(sparsified));
      } catch (...) {
        return end_cell(i, classify(stage, std::current_exception()), 1);
      }
    }
    submit_metric_units(i);
  };

  // Pipelined execution — no barrier between the stages. Every reference
  // and then every group's scoring task is queued up front; the moment a
  // group's state is ready, its cells' subgraph builds jump the queue
  // (SubmitUrgent), and the moment a subgraph lands its metric units jump
  // the queue in turn, except those whose reference is still being
  // prepared: they park on it until it lands. Consequences:
  //   - peak ScoreState residency is bounded by the groups actually in
  //     flight (~thread count), not the whole grid (ER's state alone is
  //     three |E|-length arrays per run), and peak Subgraph residency by
  //     the cells in flight: the last cell of a group frees the group's
  //     state, the last metric unit of a cell frees the cell's subgraph;
  //   - cheap groups' cells never stall behind an expensive group's
  //     scoring (ER's CG solves), a single-group grid still fans its
  //     cells across all workers, and a single-cell grid still fans its
  //     metrics (and their BFS-batch subtasks) across all workers.
  // Determinism is untouched by any of this scheduling: group scoring
  // streams derive from (master_seed, sparsifier, run) — deterministic
  // sparsifiers ignore them entirely — each reference stream from
  // ReferenceSeed, and each (cell, metric) unit's stream from MetricSeed.
  // MaskForRate is const and re-entrant, so one group's cells can
  // threshold the shared state concurrently; the subgraph is immutable
  // once built, so one cell's metrics can read it concurrently, and so is
  // a landed reference.
  for (Reference& ref : references) {
    impl_->pool.Submit([&, r = &ref] { run_reference(*r); });
  }
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    impl_->pool.Submit([&, gi] {
      Group& group = groups[gi];
      if (run_token.Cancelled()) {
        for (size_t i : group.cells) end_cell(i, skipped, 0);
        return;
      }
      {
        const BatchTask& first = *group.first;
        StageScope stage(kScoreGroup, first.sparsifier, &first, run_token,
                         timeout, run);
        try {
          stage.Failpoint();
          Rng group_rng(GroupSeed(master_seed, first.sparsifier, first.run));
          group.state = group.instance->PrepareScores(*group.input, group_rng);
        } catch (...) {
          Failure f = classify(stage, std::current_exception());
          for (size_t i : group.cells) end_cell(i, f, 1);
          return;
        }
      }
      for (size_t i : group.cells) {
        impl_->pool.SubmitUrgent([&, gi, i] {
          Group& cell_group = groups[gi];
          build_subgraph(cell_group, i);
          if (cell_group.cells_left.fetch_sub(1, std::memory_order_acq_rel) ==
              1) {
            cell_group.state.reset();  // last cell frees the score state
          }
        });
      }
    });
  }
  impl_->pool.Wait();
  return run;
}

}  // namespace sparsify
