// Span tracer: RAII scoped spans recorded into per-thread buffers and
// drained into Chrome trace_event JSON (loadable in chrome://tracing or
// https://ui.perfetto.dev).
//
// Cost model:
//   - tracing off (the default): one relaxed atomic load per span site.
//     No clock reads, no allocation — this is the mode the zero-alloc
//     bench gate runs in.
//   - tracing on (StartTracing / --trace=FILE): two steady_clock reads
//     per span plus an append to a thread-local buffer; detail/arg
//     strings are copied. Buffers grow unbounded until drained — spans
//     are for bounded runs (a sweep, a bench), not an always-on server
//     loop.
//
// Determinism contract: spans observe; they never consume RNG, never
// touch result values, and the trace file is a separate artifact — CSV
// exports are byte-identical with tracing on or off (tested).
//
// Usage:
//   TRACE_SPAN(span, "metric_unit");
//   if (span.active()) {
//     span.Detail(metric_name);           // aggregation key in `profile`
//     span.Arg("sparsifier", algo_name);  // extra context in the trace
//   }
//
// The span name must be a string literal (or otherwise outlive the
// drain): it is stored as a pointer. Detail/Arg values are copied.
#ifndef SPARSIFY_OBS_TRACE_H_
#define SPARSIFY_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/util/timer.h"

namespace sparsify::obs {

/// One completed span. Timestamps are Timer::NowNanos() values (shared
/// steady_clock domain); tid is a small per-buffer ordinal, stable for
/// the life of the thread.
struct TraceEvent {
  const char* name = "";  // stage name, e.g. "metric_unit"
  std::string detail;     // sub-key, e.g. the metric name; may be empty
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int tid = 0;
  /// Extra (key, value) pairs emitted into the Chrome event's args.
  std::vector<std::pair<std::string, std::string>> args;

  double DurationSeconds() const {
    return static_cast<double>(end_ns - begin_ns) * 1e-9;
  }
};

/// True while spans are being recorded. One relaxed load; this is the
/// whole cost of a span site when tracing is off.
bool TracingEnabled();

/// Clears previously drained-able events and starts recording.
void StartTracing();

/// Stops recording. Spans already open finish recording normally (their
/// destructor checks nothing — they were armed at construction).
void StopTracing();

/// Moves all recorded events out of every thread buffer, sorted by
/// begin time. Call after the workload has quiesced (pool Wait()
/// returned); a span still open on another thread is not included.
std::vector<TraceEvent> DrainTrace();

namespace internal {
void RecordEvent(TraceEvent&& ev);
int ThisThreadTraceTid();
}  // namespace internal

/// RAII span. Arms itself at construction iff tracing is enabled; the
/// destructor stamps the end time and appends to this thread's buffer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (TracingEnabled()) {
      active_ = true;
      event_.name = name;
      event_.tid = internal::ThisThreadTraceTid();
      event_.begin_ns = Timer::NowNanos();
    }
  }

  ~ScopedSpan() {
    if (active_) {
      event_.end_ns = Timer::NowNanos();
      internal::RecordEvent(std::move(event_));
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Whether this span is recording. Guard Detail/Arg calls with this so
  /// their string construction is skipped when tracing is off.
  bool active() const { return active_; }

  void Detail(std::string detail) {
    if (active_) event_.detail = std::move(detail);
  }

  void Arg(std::string key, std::string value) {
    if (active_) {
      event_.args.emplace_back(std::move(key), std::move(value));
    }
  }

 private:
  bool active_ = false;
  TraceEvent event_;
};

#define TRACE_SPAN(var, name) ::sparsify::obs::ScopedSpan var(name)

/// Writes events as Chrome trace_event JSON ({"traceEvents": [...]}).
/// Each span becomes a balanced B/E pair; `name` is the span name
/// verbatim (so tooling can select on it), detail and args go into the
/// begin event's args object. Timestamps are rebased onto the earliest
/// event and written in microseconds.
void WriteChromeTrace(const std::vector<TraceEvent>& events,
                      std::ostream& out);

/// WriteChromeTrace to a file path. Returns false (and writes nothing
/// durable) if the file cannot be opened.
bool WriteChromeTraceFile(const std::vector<TraceEvent>& events,
                          const std::string& path);

}  // namespace sparsify::obs

#endif  // SPARSIFY_OBS_TRACE_H_
