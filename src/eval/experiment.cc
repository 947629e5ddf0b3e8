#include "src/eval/experiment.h"

#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>

#include "src/engine/batch_runner.h"
#include "src/util/stats.h"

namespace sparsify {

BatchSpec ToBatchSpec(const SweepConfig& config) {
  BatchSpec spec;
  spec.sparsifiers = config.sparsifiers;
  spec.prune_rates = config.prune_rates;
  spec.runs = config.runs_nondeterministic;
  spec.master_seed = config.seed;
  return spec;
}

SweepPoint FoldPoint(double requested_rate, const std::vector<double>& values,
                     const std::vector<double>& achieved, bool fixed_output) {
  SweepPoint point;
  point.requested_prune_rate = requested_rate;
  point.runs = static_cast<int>(values.size());
  if (values.empty()) {
    point.mean = point.stddev = point.achieved_prune_rate =
        std::numeric_limits<double>::quiet_NaN();
    return point;
  }
  point.mean = Mean(values);
  point.stddev = StdDev(values);
  point.achieved_prune_rate = Mean(achieved);
  if (fixed_output) point.requested_prune_rate = point.achieved_prune_rate;
  return point;
}

std::vector<SweepSeries> FoldSweepResults(
    const SweepConfig& config, const std::vector<BatchResult>& results) {
  BatchSpec spec = ToBatchSpec(config);
  // Results arrive in grid order: sparsifier-major, then rate, then run.
  // Each requested entry's block size comes from ExpandGrid itself (on a
  // single-name spec), so the fold can never drift from the engine's
  // expansion; grouping within a block uses the tasks' own prune_rate.
  // One series per requested entry, even when a name is listed twice.
  std::vector<std::string> names =
      spec.sparsifiers.empty() ? SparsifierNames() : spec.sparsifiers;
  std::vector<SweepSeries> all_series;
  size_t i = 0;
  for (const std::string& name : names) {
    BatchSpec entry_spec = spec;
    entry_spec.sparsifiers = {name};
    size_t end = i + BatchRunner::ExpandGrid(entry_spec).size();
    bool fixed_output = CreateSparsifier(name)->Info().prune_rate_control ==
                        PruneRateControl::kNone;
    SweepSeries series;
    series.sparsifier = name;
    while (i < end) {
      // run == 0 marks the start of each (name, rate) block in ExpandGrid's
      // ordering; grouping on it (rather than rate equality) keeps duplicate
      // or NaN rates as separate points.
      // Only units with a value count (see FoldPoint for a point whose
      // every unit failed).
      double rate = results[i].task.prune_rate;
      std::vector<double> values;
      std::vector<double> achieved;
      do {
        if (results[i].has_value) {
          values.push_back(results[i].value);
          achieved.push_back(results[i].achieved_prune_rate);
        }
        ++i;
      } while (i < end && results[i].task.run != 0);
      series.points.push_back(FoldPoint(rate, values, achieved, fixed_output));
    }
    all_series.push_back(std::move(series));
  }
  return all_series;
}

void PrintSeriesCsv(std::ostream& os, const std::string& title,
                    const std::vector<SweepSeries>& series) {
  os << "# " << title << "\n";
  os << "sparsifier,prune_rate,achieved_prune_rate,value,stddev,runs\n";
  for (const SweepSeries& s : series) {
    for (const SweepPoint& p : s.points) {
      os << s.sparsifier << "," << p.requested_prune_rate << ","
         << p.achieved_prune_rate << "," << p.mean << "," << p.stddev << ","
         << p.runs << "\n";
    }
  }
}

void PrintSeriesTable(std::ostream& os, const std::string& title,
                      const std::string& value_name,
                      const std::vector<SweepSeries>& series,
                      std::optional<double> reference,
                      std::optional<double> baseline) {
  os << "== " << title << " ==\n";
  if (reference.has_value()) {
    os << "(reference on full graph: " << *reference << ")\n";
  }
  if (baseline.has_value()) {
    os << "(baseline on empty graph: " << *baseline << ")\n";
  }
  // Column header from the union of requested rates.
  std::vector<double> rates;
  for (const SweepSeries& s : series) {
    for (const SweepPoint& p : s.points) {
      bool found = false;
      for (double r : rates) {
        if (std::abs(r - p.requested_prune_rate) < 1e-9) found = true;
      }
      if (!found) rates.push_back(p.requested_prune_rate);
    }
  }
  std::sort(rates.begin(), rates.end());
  os << std::setw(8) << value_name << " |";
  for (double r : rates) {
    os << std::setw(9) << std::fixed << std::setprecision(2) << r;
  }
  os << "\n";
  os << std::string(10 + rates.size() * 9, '-') << "\n";
  for (const SweepSeries& s : series) {
    os << std::setw(8) << s.sparsifier << " |";
    for (double r : rates) {
      const SweepPoint* found = nullptr;
      for (const SweepPoint& p : s.points) {
        if (std::abs(p.requested_prune_rate - r) < 1e-9) found = &p;
      }
      if (found != nullptr) {
        os << std::setw(9) << std::fixed << std::setprecision(3)
           << found->mean;
      } else {
        os << std::setw(9) << "-";
      }
    }
    os << "\n";
  }
  os << "\n";
}

}  // namespace sparsify
