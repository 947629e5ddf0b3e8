// Cooperative cancellation and deadlines: the engine's defense against
// time. A CancelToken is a relaxed-atomic flag plus an optional deadline
// on the library's shared monotonic clock (Timer::NowNanos); long-running
// kernels poll it at round granularity through SPARSIFY_CHECK_CANCELLED,
// which follows the same one-load-when-unarmed discipline as TRACE_SPAN
// and SPARSIFY_FAILPOINT: when no token is installed anywhere in the
// process, a check is a single relaxed load of a global counter, so the
// hot paths pay nothing for carrying cancellation compiled in.
//
// Tokens form a parent chain (unit token -> run token): cancelling the
// run cancels every unit, while a unit's own deadline fires alone. A
// tripped check throws CancelledError or DeadlineExceededError
// (src/util/errors.h); the engine's failure classifier turns a unit
// deadline into a typed "deadline" error record (resume resubmits it)
// and a run-level cancellation into a skipped unit with no record at
// all. Cancellation never consumes engine RNG, so a cancelled-then-
// resumed sweep is bit-identical to a cold one.
//
// The file also hosts the two time-robustness services built on tokens:
// a watchdog thread that detects stuck units via the activity registry
// (dumping the obs counter table + in-flight activities to stderr before
// escalating), and the CLI's async-signal-safe SIGINT/SIGTERM-to-token
// bridge for graceful shutdown.
#ifndef SPARSIFY_UTIL_CANCEL_H_
#define SPARSIFY_UTIL_CANCEL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace sparsify {

/// Cooperative cancellation token: a lock-free flag + optional deadline.
/// Cancel() is async-signal-safe (one relaxed CAS on a lock-free atomic),
/// so a POSIX signal handler may cancel the token a sweep is watching.
/// Checks are wait-free; the deadline consults the clock only until it
/// latches. Tokens are passed by pointer and must outlive every checker.
class CancelToken {
 public:
  /// Why the token tripped. First cause wins and is sticky.
  enum class Reason : uint8_t { kNone = 0, kCancelled = 1, kDeadline = 2 };

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation. Safe from any thread and from signal
  /// handlers. A later Cancel with a different reason is a no-op.
  /// const: checkers hold const pointers, and the watchdog escalates
  /// through one — the flag is the token's mutable-by-design half.
  void Cancel(Reason reason = Reason::kCancelled) const {
    uint8_t expected = 0;
    state_.compare_exchange_strong(expected, static_cast<uint8_t>(reason),
                                   std::memory_order_relaxed);
  }

  /// Sets an absolute deadline in Timer::NowNanos() nanoseconds
  /// (0 = none). Checks after the deadline trip with Reason::kDeadline.
  void SetDeadline(int64_t deadline_ns) {
    deadline_ns_.store(deadline_ns, std::memory_order_relaxed);
  }

  /// Sets the deadline `seconds` from now. Nonpositive durations are
  /// already expired: the very next check trips.
  void SetDeadlineAfter(double seconds);

  int64_t deadline_ns() const {
    return deadline_ns_.load(std::memory_order_relaxed);
  }

  /// Chains this token under `parent`: the parent tripping trips this
  /// token too (checked transitively). Set before sharing the token.
  void set_parent(const CancelToken* parent) { parent_ = parent; }
  const CancelToken* parent() const { return parent_; }

  /// True once cancelled, past deadline, or an ancestor tripped. A
  /// passed deadline latches into state so later checks skip the clock.
  bool Cancelled() const;

  /// This token's own trip reason (kNone if only an ancestor tripped).
  Reason reason() const {
    return static_cast<Reason>(state_.load(std::memory_order_relaxed));
  }

  /// The reason a check would observe: own reason, else the nearest
  /// tripped ancestor's, else kNone.
  Reason EffectiveReason() const;

  /// Throws DeadlineExceededError / CancelledError if tripped; no-op
  /// otherwise. This is what SPARSIFY_CHECK_CANCELLED calls when armed.
  void ThrowIfCancelled() const;

 private:
  // mutable: Cancelled() latches an expired deadline on const tokens.
  mutable std::atomic<uint8_t> state_{0};
  std::atomic<int64_t> deadline_ns_{0};
  const CancelToken* parent_ = nullptr;
};

/// The token the current thread's work should poll, or nullptr. Installed
/// by CancelScope; the engine installs one around every unit, and
/// NestedParallelFor re-installs the caller's token inside pool helpers.
const CancelToken* CurrentCancelToken();

/// RAII: installs `token` as the current thread's ambient cancel token
/// for the scope's lifetime and restores the previous one on exit.
/// Installing nullptr is a no-op scope (the global armed count does not
/// move), so unconditional scopes cost nothing when cancellation is off.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token);
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* previous_;
  bool armed_;
};

namespace cancel_internal {

// Count of live non-null CancelScopes across all threads. Zero means no
// thread anywhere can observe a token, so checks reduce to this load.
extern std::atomic<int> g_armed;

inline bool AnyArmed() {
  return g_armed.load(std::memory_order_relaxed) > 0;
}

// Slow path: polls the current thread's token (if any) and throws on
// trip. Out of line so the macro's fast path stays a single load.
void CheckCurrent();

}  // namespace cancel_internal

/// Cooperative cancellation check for round loops. One relaxed load when
/// no token is installed process-wide; when armed, a thread-local read
/// plus a relaxed flag load (plus one clock read until a deadline
/// latches). Throws CancelledError / DeadlineExceededError on trip.
#define SPARSIFY_CHECK_CANCELLED()                      \
  do {                                                  \
    if (::sparsify::cancel_internal::AnyArmed()) {      \
      ::sparsify::cancel_internal::CheckCurrent();      \
    }                                                   \
  } while (0)

// ---------------------------------------------------------------------------
// Activity registry: what each thread is working on right now.
//
// The engine wraps every unit of work (score group, subgraph build,
// metric unit) in an ActivityScope; the watchdog samples the registry to
// find activities that have made no progress past the stall threshold.
// DrainTrace() only surfaces *completed* spans, so this registry is the
// source of truth for in-flight ("armed") work.
// ---------------------------------------------------------------------------

/// RAII: marks the current thread as executing `stage` (a string literal,
/// e.g. "metric_unit") on `detail` (copied), watchable via `token` (may
/// be null). Scopes nest; the enclosing activity is restored on exit.
class ActivityScope {
 public:
  ActivityScope(const char* stage, const std::string& detail,
                const CancelToken* token);
  ~ActivityScope();
  ActivityScope(const ActivityScope&) = delete;
  ActivityScope& operator=(const ActivityScope&) = delete;

 private:
  const char* prev_stage_;
  std::string prev_detail_;
  const CancelToken* prev_token_;
  int64_t prev_start_ns_;
  void* slot_;
};

/// One in-flight activity as sampled by the watchdog / dump path.
struct ActivitySnapshot {
  std::string stage;
  std::string detail;
  double age_seconds = 0;
  bool cancellable = false;
};

/// Snapshot of every thread's current activity (threads with no active
/// ActivityScope are omitted). Exposed for tests and the watchdog dump.
std::vector<ActivitySnapshot> SnapshotActivities();

// ---------------------------------------------------------------------------
// Watchdog: detects units that stopped making progress.
// ---------------------------------------------------------------------------

struct WatchdogOptions {
  /// An activity older than this is considered stuck. Must be > 0.
  double stall_seconds = 300.0;
  /// Poll period; 0 derives stall_seconds / 4, clamped to [50ms, 5s].
  double poll_seconds = 0;
  /// After dumping, cancel the stuck activity's token with
  /// Reason::kDeadline so only that unit fails under FaultPolicy.
  bool cancel_stuck = true;
};

/// Starts the singleton watchdog thread. On a stuck activity it dumps
/// the activity table and the obs counter/histogram snapshot to stderr
/// (once per stuck activity), then escalates per `cancel_stuck`. A
/// second Start while running is ignored.
void StartWatchdog(const WatchdogOptions& options);

/// Stops and joins the watchdog thread. No-op if not running.
void StopWatchdog();

/// Number of stuck-activity dumps emitted since process start (for
/// tests/CI smoke assertions).
int64_t WatchdogDumpCount();

// ---------------------------------------------------------------------------
// Signal-driven graceful shutdown (used by the CLI).
// ---------------------------------------------------------------------------

/// Installs SIGINT/SIGTERM handlers that cancel `token` (first signal;
/// a short notice is written to stderr with write(2)) and _exit(128+sig)
/// on the second signal. The handler body is async-signal-safe: one
/// relaxed CAS plus write(2). `token` must stay alive until
/// ClearSignalCancel() restores the previous handlers.
void InstallSignalCancel(CancelToken* token);

/// Restores the previously installed SIGINT/SIGTERM handlers and
/// forgets the token. Safe to call when nothing is installed.
void ClearSignalCancel();

/// The signal number that triggered cancellation (0 if none yet). Reset
/// by InstallSignalCancel.
int SignalCancelSigno();

}  // namespace sparsify

#endif  // SPARSIFY_UTIL_CANCEL_H_
