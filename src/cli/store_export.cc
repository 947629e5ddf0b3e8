#include "src/cli/store_export.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <string_view>
#include <tuple>

#include "src/sparsifiers/sparsifier.h"

namespace sparsify::cli {

namespace {

// Where a sparsifier's series goes and how its rates read. Resolved once
// per name: the sort compares each cell about log2(n) times.
struct SeriesOrder {
  // Registry rank for deterministic series order; unknown names (from a
  // different code revision) sort after all known ones, alphabetically.
  size_t rank = 0;
  // Fixed-output algorithms report the achieved mean as their rate.
  bool fixed_output = false;
};

SeriesOrder OrderOf(const std::string& short_name) {
  static const std::vector<std::string> names = SparsifierNames();
  SeriesOrder order;
  order.rank = static_cast<size_t>(
      std::find(names.begin(), names.end(), short_name) - names.begin());
  try {
    order.fixed_output =
        CreateSparsifier(short_name)->Info().prune_rate_control ==
        PruneRateControl::kNone;
  } catch (const std::invalid_argument&) {
    // unknown sparsifier: leave stored rates untouched
  }
  return order;
}

// One result cell of a group, with its series order resolved.
struct RankedCell {
  const StoredCell* cell;
  const SeriesOrder* order;
};

}  // namespace

std::vector<StoreGroup> RebuildSeries(const ResultStore& store,
                                      const std::string& dataset_filter,
                                      const std::string& metric_filter) {
  const std::vector<StoredCell> cells = store.Cells();
  // Views into `cells`, which outlives both maps.
  std::map<std::string_view, SeriesOrder> orders;
  using GroupKey = std::tuple<std::string_view, std::string_view, uint64_t,
                              std::string_view>;
  std::map<GroupKey, std::vector<RankedCell>> groups;
  for (const StoredCell& cell : cells) {
    // Error records are failed units, not results: exporting them would
    // fold zeros into the series means. `ls` reports their count.
    if (cell.is_error) continue;
    if (!dataset_filter.empty() && cell.key.dataset != dataset_filter) {
      continue;
    }
    if (!metric_filter.empty() && cell.key.metric != metric_filter) continue;
    auto order = orders.find(cell.key.sparsifier);
    if (order == orders.end()) {
      order = orders.emplace(cell.key.sparsifier, OrderOf(cell.key.sparsifier))
                  .first;
    }
    groups[{cell.key.dataset, cell.key.metric, cell.key.master_seed,
            cell.key.code_rev}]
        .push_back({&cell, &order->second});
  }

  std::vector<StoreGroup> out;
  for (auto& [key, ranked] : groups) {
    StoreGroup group;
    std::tie(group.dataset, group.metric, group.master_seed, group.code_rev) =
        key;

    // Since r4 a (sparsifier, rate, run) triple IS the cell's identity
    // within a group — grid position is no longer part of the key — so
    // the sort is a total order over distinct cells; nothing to dedup.
    std::sort(ranked.begin(), ranked.end(),
              [](const RankedCell& a, const RankedCell& b) {
                const CellKey& ka = a.cell->key;
                const CellKey& kb = b.cell->key;
                return std::tie(a.order->rank, ka.sparsifier, ka.prune_rate,
                                ka.run) < std::tie(b.order->rank,
                                                   kb.sparsifier,
                                                   kb.prune_rate, kb.run);
              });
    group.cells = ranked.size();

    size_t i = 0;
    while (i < ranked.size()) {
      SweepSeries series;
      series.sparsifier = ranked[i].cell->key.sparsifier;
      const bool fixed_output = ranked[i].order->fixed_output;
      while (i < ranked.size() &&
             ranked[i].cell->key.sparsifier == series.sparsifier) {
        double rate = ranked[i].cell->key.prune_rate;
        std::vector<double> values;
        std::vector<double> achieved;
        while (i < ranked.size() &&
               ranked[i].cell->key.sparsifier == series.sparsifier &&
               ranked[i].cell->key.prune_rate == rate) {
          values.push_back(ranked[i].cell->value);
          achieved.push_back(ranked[i].cell->achieved_prune_rate);
          ++i;
        }
        series.points.push_back(
            FoldPoint(rate, values, achieved, fixed_output));
      }
      group.series.push_back(std::move(series));
    }
    out.push_back(std::move(group));
  }
  return out;
}

void ExportStore(const ResultStore& store, std::ostream& os, bool csv,
                 const std::string& dataset_filter,
                 const std::string& metric_filter) {
  for (const StoreGroup& group : RebuildSeries(store, dataset_filter,
                                               metric_filter)) {
    std::string title = group.metric + " on " + group.dataset + " (seed=" +
                        std::to_string(group.master_seed) + ", rev=" +
                        group.code_rev + ")";
    if (csv) {
      PrintSeriesCsv(os, title, group.series);
    } else {
      PrintSeriesTable(os, title, group.metric, group.series);
    }
  }
}

void SummarizeStore(const ResultStore& store, std::ostream& os) {
  os << "store: " << store.Dir() << "\n";
  os << "cells: " << store.Size();
  if (store.ErrorCount() > 0) {
    os << " (" << store.ErrorCount()
       << " error record(s): failed units a resumed sweep will retry)";
  }
  if (store.DroppedTailBytes() > 0) {
    os << " (dropped " << store.DroppedTailBytes()
       << " bytes of torn tail from a crashed append)";
  }
  os << "\n";
  for (const StoreGroup& group : RebuildSeries(store)) {
    std::set<std::string> sparsifiers;
    std::set<double> rates;
    int max_runs = 0;
    for (const SweepSeries& s : group.series) {
      sparsifiers.insert(s.sparsifier);
      for (const SweepPoint& p : s.points) {
        rates.insert(p.requested_prune_rate);
        max_runs = std::max(max_runs, p.runs);
      }
    }
    os << "  " << group.dataset << " " << group.metric << " seed="
       << group.master_seed << " rev=" << group.code_rev << ": "
       << group.cells << " cells, " << sparsifiers.size()
       << " sparsifiers, " << rates.size() << " rates, runs<=" << max_runs
       << "\n";
  }
}

}  // namespace sparsify::cli
