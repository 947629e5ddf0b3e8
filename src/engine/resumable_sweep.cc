#include "src/engine/resumable_sweep.h"

#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace sparsify {

ResumableSweep::ResumableSweep(BatchRunner& runner, ResultStore* store,
                               std::string code_rev)
    : runner_(runner), store_(store), code_rev_(std::move(code_rev)) {}

ResumableSweep::Grid::Grid(const Graph& g, const std::string& dataset,
                           const std::vector<BatchMetric>& metrics,
                           const SweepConfig& config,
                           const std::string& code_rev)
    : g(g),
      dataset(dataset),
      metrics(metrics),
      config(config),
      code_rev(code_rev),
      spec(ToBatchSpec(config)),
      tasks(BatchRunner::ExpandGrid(spec)),
      results(metrics.size(), std::vector<BatchResult>(tasks.size())) {
  for (std::vector<BatchResult>& slots : results) {
    for (size_t i = 0; i < tasks.size(); ++i) slots[i].task = tasks[i];
  }
}

CellKey ResumableSweep::Grid::Key(size_t cell, size_t metric) const {
  CellKey key;
  key.dataset = dataset;
  key.sparsifier = tasks[cell].sparsifier;
  key.prune_rate = tasks[cell].prune_rate;
  key.run = tasks[cell].run;
  key.master_seed = spec.master_seed;
  key.metric = metrics[metric].name;
  key.code_rev = code_rev;
  return key;
}

void ResumableSweep::Grid::Set(size_t cell, size_t metric, double achieved,
                               double value) {
  BatchResult& r = results[metric][cell];
  r.has_value = true;
  r.achieved_prune_rate = achieved;
  r.value = value;
}

std::vector<MetricSweepSeries> ResumableSweep::Grid::Fold() const {
  // Units without a result (failed, or cancelled mid-run) keep an empty
  // slot: the series are complete minus those units, and the store carries
  // their error records (or nothing) for the next resume.
  std::vector<MetricSweepSeries> out(metrics.size());
  for (size_t m = 0; m < metrics.size(); ++m) {
    out[m].metric = metrics[m].name;
    out[m].series = FoldSweepResults(config, results[m]);
  }
  return out;
}

void ResumableSweep::RunUnits(Grid& grid, const std::vector<BatchTask>& missing,
                              size_t progress_total,
                              ResumableSweepStats& stats) {
  if (missing.empty()) return;
  for (const BatchTask& task : missing) {
    stats.submitted_cells += task.metrics.size();
  }
  auto report = [&] {
    if (progress_) {
      progress_(grid.completed.fetch_add(1, std::memory_order_relaxed) + 1,
                progress_total);
    }
  };
  // A store write that throws is no unit's failure: the first one
  // cancels the run (the remaining units end as cancelled, recording
  // nothing) and is rethrown once the run drains, so the unit it lost is
  // missing for the next resume.
  CancelToken run_token(cancel_);
  std::mutex write_mu;
  std::exception_ptr write_error;
  auto write = [&](auto&& append) {
    if (store_ == nullptr) return;
    try {
      append();
    } catch (...) {
      std::lock_guard<std::mutex> lock(write_mu);
      if (!write_error) write_error = std::current_exception();
      run_token.Cancel();
    }
  };
  // Append as each unit completes: the store flushes per record, so a
  // crash loses at most the in-flight line (see store/README.md). The
  // callbacks run on worker threads; Append serializes internally, and
  // each unit writes its own result slot. Submitted tasks keep their grid
  // indices, which is where their results land.
  BatchRunner::MetricResultCallback on_unit =
      [&](const BatchTask& task, double achieved, uint32_t m, double value) {
        grid.Set(task.index, m, achieved, value);
        write([&] {
          store_->Append(grid.Key(task.index, m), achieved, value);
        });
        report();
      };
  // A failed unit lands in the store as a typed error record (same
  // CellKey — the next resume sees it as missing and resubmits it) and
  // counts as completed for progress purposes.
  FaultPolicy faults;
  faults.cancel = &run_token;
  faults.stage_timeout_seconds = stage_timeout_seconds_;
  faults.on_unit_failure = [&](const BatchTask& task, uint32_t m,
                               const std::string& error_class,
                               const std::string& error_message,
                               int attempts) {
    write([&] {
      store_->AppendError(grid.Key(task.index, m), error_class,
                          error_message, attempts);
    });
    report();
  };
  stats += runner_.RunTasksMulti(grid.g, grid.dataset, missing,
                                 grid.spec.master_seed, grid.metrics, on_unit,
                                 faults);
  if (write_error) std::rethrow_exception(write_error);
}

std::vector<MetricSweepSeries> ResumableSweep::RunMulti(
    const Graph& g, const std::string& dataset,
    const std::vector<BatchMetric>& metrics, const SweepConfig& config,
    ResumableSweepStats* stats) {
  if (shard_.total > 1 && store_ == nullptr) {
    throw std::invalid_argument(
        "sharded sweep: --shard requires a result store (each shard "
        "writes its own directory, and merge folds them)");
  }
  Grid grid(g, dataset, metrics, config, code_rev_);
  ResumableSweepStats local;
  ResumableSweepStats& st = stats != nullptr ? *stats : local;
  st = ResumableSweepStats{};
  // A shard's cells: those of the score groups it owns, the k-th distinct
  // (sparsifier, run) group in grid order going to shard k % total.
  std::map<std::pair<std::string_view, int>, size_t> group_ids;
  auto owned = [&](const BatchTask& task) {
    if (shard_.total <= 1) return true;
    const size_t k =
        group_ids.try_emplace({task.sparsifier, task.run}, group_ids.size())
            .first->second;
    return k % shard_.total == shard_.index;
  };
  // Partition the share's (cell × metric) product: units already in the
  // store become results directly; each cell with at least one missing
  // metric is submitted ONCE, carrying exactly its missing metric ids, so
  // the engine materializes its subgraph once for all of them. An error
  // record is a unit that FAILED, not one that completed: it reads back
  // as missing so this resume resubmits it. Every RNG stream derives from
  // grid-shape-independent identities, so the values match a cold run's.
  const bool consult = store_ != nullptr && reuse_cached_;
  std::vector<BatchTask> missing;
  size_t missing_units = 0;
  for (const BatchTask& task : grid.tasks) {
    if (!owned(task)) continue;
    st.total_cells += metrics.size();
    std::vector<uint32_t> missing_ids;
    for (uint32_t m = 0; m < metrics.size(); ++m) {
      std::optional<StoredOutcome> cached;
      if (consult) cached = store_->Lookup(grid.Key(task.index, m));
      if (!cached.has_value() || cached->is_error) {
        missing_ids.push_back(m);
      } else {
        grid.Set(task.index, m, cached->achieved_prune_rate, cached->value);
      }
    }
    if (!missing_ids.empty()) {
      missing_units += missing_ids.size();
      missing.push_back(task);
      missing.back().metrics = std::move(missing_ids);
    }
  }
  RunUnits(grid, missing, missing_units, st);
  st.cached_cells = st.total_cells - st.submitted_cells;
  return grid.Fold();
}

}  // namespace sparsify
