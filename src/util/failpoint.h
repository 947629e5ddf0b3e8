// Deterministic fault-injection: named failpoints on the engine's
// failure-critical paths (store append/replay/lock, ingest tmp
// write/rename/verify, pool task dispatch, engine unit execution).
//
// A failpoint site is one SPARSIFY_FAILPOINT("name") statement. Sites
// are free when nothing is armed — the macro compiles to a single
// relaxed atomic load, the same discipline as TRACE_SPAN — and only
// consult the (mutex-protected) site table while at least one policy is
// armed, i.e. under tests and torture runs.
//
// Arming: programmatically (fail::Arm / fail::ArmFromSpec) or through
// the SPARSIFY_FAILPOINTS environment variable (read by the CLI at
// startup via fail::ArmFromEnv), so a subprocess torture harness can
// inject faults into an unmodified binary.
//
// Spec grammar (';'-separated entries):
//   site=action[@trigger]
//   action   throw            throw fail::InjectedFault (permanent class)
//            throw-transient  throw TransientError (the retryable class)
//            abort            std::abort() — simulates a hard crash with
//                             buffers lost past the last flush
//            kill             raise(SIGKILL) — the torture harness's
//                             crash: no atexit, no stream flush, nothing
//            delay:MS         sleep MS milliseconds, then continue
//            hang             block until the ambient CancelToken
//                             (src/util/cancel.h) trips — then the
//                             cancellation propagates as its typed
//                             exception — or until every failpoint is
//                             disarmed (then continue). Makes the
//                             stage-timeout and run-deadline paths
//                             testable without timing-flaky sleeps.
//   trigger  (none)           fire on every hit
//            @N               fire on exactly the Nth hit (1-based), once
//            @pP              fire per-hit with probability P in [0,1]
//            @pP/SEED         same, seeding the site's RNG with SEED
// Examples:
//   SPARSIFY_FAILPOINTS='store.append=kill@7'
//   SPARSIFY_FAILPOINTS='engine.metric_unit/degree=throw'
//   SPARSIFY_FAILPOINTS='engine.metric_unit=throw-transient@p0.3/42'
//
// Scoped sites: SPARSIFY_FAILPOINT_SCOPED(site, scope) evaluates the
// dynamic name "site/scope" first and falls back to the bare site, so a
// spec can target one metric ("engine.metric_unit/degree") or all of
// them ("engine.metric_unit").
//
// Determinism contract: failpoints never touch result values or the
// engine's RNG streams. Nth-hit triggers count per site under a lock,
// so with a single worker thread the Nth hit is the same hit every run;
// with many workers the hit ORDER varies but the set of sites hit does
// not. Probability triggers draw from a private per-site SplitMix64
// stream seeded by the spec, never from the engine's Rng.
#ifndef SPARSIFY_UTIL_FAILPOINT_H_
#define SPARSIFY_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/util/errors.h"

namespace sparsify::fail {

/// Thrown by the `throw` action: an injected permanent failure. Distinct
/// from TransientError so tests can assert which class fired.
class InjectedFault : public SparsifyError {
 public:
  explicit InjectedFault(const std::string& what) : SparsifyError(what) {}
};

enum class Action {
  kThrow,           // throw InjectedFault
  kThrowTransient,  // throw TransientError
  kAbort,           // std::abort()
  kKill,            // raise(SIGKILL)
  kDelay,           // sleep delay_ms, then continue
  kHang,            // block until cancelled or disarmed
};

/// When and what a failpoint does. Default-constructed: fire on every
/// hit, throwing InjectedFault.
struct Policy {
  Action action = Action::kThrow;
  // Trigger selection: nth > 0 fires on exactly the Nth hit (1-based,
  // once); otherwise probability >= 0 fires per-hit with that chance;
  // otherwise every hit fires.
  uint64_t nth = 0;
  double probability = -1.0;
  uint64_t seed = 0;         // probability stream seed
  uint64_t delay_ms = 0;     // kDelay only
};

/// Arms `site` with `policy` (replacing any existing policy for the
/// site and resetting its hit/fired counters).
void Arm(const std::string& site, const Policy& policy);

/// Disarms one site. Unknown sites are a no-op.
void Disarm(const std::string& site);

/// Disarms everything and resets all counters. Tests call this in
/// teardown so armed state never leaks across tests.
void DisarmAll();

/// Parses and arms a ';'-separated spec (grammar above). Returns the
/// number of sites armed. Throws std::invalid_argument on a malformed
/// spec — a typo in a torture run must abort loudly, not silently
/// disable the fault.
int ArmFromSpec(const std::string& spec);

/// Arms from the SPARSIFY_FAILPOINTS environment variable if set.
/// Returns the number of sites armed (0 when unset or empty).
int ArmFromEnv();

/// Times `site` was evaluated while armed (scoped lookups count under
/// the name that matched). 0 for never-hit or unknown sites.
uint64_t HitCount(const std::string& site);

/// Times `site`'s action actually fired.
uint64_t FiredCount(const std::string& site);

namespace internal {

// Count of armed sites; the macro's one relaxed load.
extern std::atomic<int> g_armed;

inline bool AnyArmed() {
  return g_armed.load(std::memory_order_relaxed) > 0;
}

// Slow path: looks the site up and applies its policy. `scope` may be
// nullptr; otherwise "site/scope" is consulted before the bare site.
void Evaluate(const char* site, const char* scope);

}  // namespace internal
}  // namespace sparsify::fail

/// A failpoint site. One relaxed load when nothing is armed anywhere.
#define SPARSIFY_FAILPOINT(site)                               \
  do {                                                         \
    if (::sparsify::fail::internal::AnyArmed())                \
      ::sparsify::fail::internal::Evaluate((site), nullptr);   \
  } while (0)

/// A failpoint site with a dynamic scope (e.g. the metric name): specs
/// may arm "site/scope" for one scope or "site" for all of them.
/// `scope` is a NUL-terminated C string, evaluated only when armed.
#define SPARSIFY_FAILPOINT_SCOPED(site, scope)                 \
  do {                                                         \
    if (::sparsify::fail::internal::AnyArmed())                \
      ::sparsify::fail::internal::Evaluate((site), (scope));   \
  } while (0)

#endif  // SPARSIFY_UTIL_FAILPOINT_H_
