// Span aggregation for `sparsify_cli profile`: folds a drained trace
// into a per-(stage, detail) breakdown table with exact percentiles
// (computed from the individual span durations).
#ifndef SPARSIFY_OBS_PROFILE_H_
#define SPARSIFY_OBS_PROFILE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace sparsify::obs {

/// One line of the breakdown: all spans sharing (stage, detail), where
/// stage is the span name ("metric_unit") and detail the sub-key (the
/// metric name, the sparsifier, ...; empty for undifferentiated spans).
struct ProfileRow {
  std::string stage;
  std::string detail;
  uint64_t count = 0;
  double total_seconds = 0;  // sum of span durations (thread-seconds)
  double p50_ms = 0;
  double p95_ms = 0;
  double max_ms = 0;
};

/// Aggregates events into rows. Rows are ordered by stage total time
/// (descending), then by row total within the stage, so the expensive
/// work reads top-down.
std::vector<ProfileRow> BuildProfile(const std::vector<TraceEvent>& events);

/// Run-level context printed in the table header. pool_busy_seconds is
/// the summed per-worker busy time; utilization is busy over
/// (wall x threads).
struct ProfileSummary {
  double wall_seconds = 0;
  size_t threads = 0;
  double pool_busy_seconds = 0;
};

/// Renders the breakdown as an aligned text table. units/s is row count
/// over run wall time (throughput, not inverse latency).
void PrintProfile(const std::vector<ProfileRow>& rows,
                  const ProfileSummary& summary, std::ostream& out);

}  // namespace sparsify::obs

#endif  // SPARSIFY_OBS_PROFILE_H_
