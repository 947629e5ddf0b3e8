// Rebuilds sweep series from a persisted ResultStore and renders them
// through the existing printers — the `sparsify_cli export` / `ls`
// backends, kept as a library so tests can assert byte-identical output.
#ifndef SPARSIFY_CLI_STORE_EXPORT_H_
#define SPARSIFY_CLI_STORE_EXPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/eval/experiment.h"
#include "src/store/result_store.h"

namespace sparsify::cli {

/// One exported (dataset, metric, master_seed, code_rev) group.
struct StoreGroup {
  std::string dataset;
  std::string metric;
  uint64_t master_seed = 0;
  std::string code_rev;
  size_t cells = 0;  // result cells folded into this group's series
  std::vector<SweepSeries> series;
};

/// Rebuilds series from the store's cells. Deterministic regardless of the
/// log's append order: groups sort by (dataset, metric, seed, rev), series
/// by sparsifier registry order (unknown names after, alphabetical), points
/// by (prune_rate, run). Statistics therefore fold from the same values in
/// the same order whether the store was filled cold, across resumed runs,
/// or by a fleet of shard workers. Points fold through FoldPoint, like
/// the sweep's own series. Since r4 a (sparsifier, rate, run) triple IS the
/// cell's identity within a group, so the sort is a total order over
/// distinct cells. Empty filters match all.
std::vector<StoreGroup> RebuildSeries(const ResultStore& store,
                                      const std::string& dataset_filter = "",
                                      const std::string& metric_filter = "");

/// Prints every group as CSV (csv=true, PrintSeriesCsv) or pivot tables.
void ExportStore(const ResultStore& store, std::ostream& os, bool csv,
                 const std::string& dataset_filter = "",
                 const std::string& metric_filter = "");

/// One-line-per-group summary of the store's contents.
void SummarizeStore(const ResultStore& store, std::ostream& os);

}  // namespace sparsify::cli

#endif  // SPARSIFY_CLI_STORE_EXPORT_H_
