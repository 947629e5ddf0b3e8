// Cooperative writer leases for multi-process result stores.
//
// A lease is one small JSON file (`lease.<writer-id>.json`) in the store
// directory, holding the writer's pid, a monotonically increasing
// heartbeat counter, and its TTL. Writers renew the heartbeat by
// atomically rewriting the file (tmp + rename); readers judge liveness
// without any shared clock:
//
//   acquire ── heartbeat ──> live ── pid dies / counter stops ──> stale
//                                         │
//                                         └──> reaped (lease removed)
//
// A writer is STALE when its pid is provably dead on this host
// (kill(pid,0) == ESRCH) or when its heartbeat counter has not advanced
// for longer than the TTL as observed by the prober's local steady
// clock (the wedged-process and cross-host case). Both checks are
// conservative: a live writer renews every ttl/4, so a counter that
// sits still for a full TTL means the writer cannot make progress.
//
// A lease says only that its writer may still be appending to its own
// segment chain; no file in the directory is owned through a lease. Once
// the lease is gone the writer's segments are final, and the next store
// open settles their torn tails.
//
// All mutation that must be mutually exclusive (acquisition, reaping a
// dead peer's lease, the store's replay that settles gone writers' tails)
// happens under a flock on a shared `leases.lock` sidecar; renewals and
// probes never take the flock.
#ifndef SPARSIFY_UTIL_LEASE_H_
#define SPARSIFY_UTIL_LEASE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sparsify::lease {

/// Parsed contents of one lease file.
struct LeaseInfo {
  std::string writer;       // writer id (filename-safe, no dots)
  long pid = 0;             // writer's process id on its host
  uint64_t heartbeat = 0;   // monotonic renewal counter
  double ttl_seconds = 30;  // staleness horizon the writer promised
  std::string path;         // lease file path (filled by ListLeases)
};

/// The lease TTL a store uses unless `SPARSIFY_LEASE_TTL` overrides it.
inline constexpr double kDefaultTtlSeconds = 30.0;

/// `SPARSIFY_LEASE_TTL` (seconds, > 0) if set, else `fallback`.
double TtlFromEnv(double fallback);

/// A freshly generated writer id: "w<pid>x<nonce>". Filename-safe and
/// dot-free so `log.<writer>.<n>.jsonl` splits unambiguously on dots.
std::string NewWriterId();

/// Lease file path for `writer` inside `dir`.
std::string LeasePathFor(const std::string& dir, const std::string& writer);

/// Parses every `lease.*.json` in `dir` (missing dir = none). Unreadable
/// or torn lease files are returned with pid 0 — provably-not-live, so
/// reapable.
std::vector<LeaseInfo> ListLeases(const std::string& dir);

/// Atomically writes `info`'s lease file (tmp + rename). Fires failpoint
/// "store.lease.renew". Throws IoError on filesystem failure.
void WriteLease(const std::string& dir, const LeaseInfo& info);

/// Removes `writer`'s lease file, ignoring errors (release is
/// best-effort: a leaked lease file is reaped as stale by the next
/// acquirer).
void RemoveLease(const std::string& dir, const std::string& writer);

/// RAII guard for the shared `leases.lock` flock in `dir`. Blocks until
/// acquired (acquisition sections are tiny). No-op on platforms without
/// flock.
class LeaseDirLock {
 public:
  explicit LeaseDirLock(const std::string& dir);
  ~LeaseDirLock();
  LeaseDirLock(const LeaseDirLock&) = delete;
  LeaseDirLock& operator=(const LeaseDirLock&) = delete;

 private:
  int fd_ = -1;
};

/// Tracks heartbeat observations so staleness needs no cross-host clock:
/// a writer is stale once its counter has sat still for > ttl on OUR
/// steady clock. One prober keeps one of these for the store's lifetime.
class LivenessProber {
 public:
  /// True when `info`'s writer should be treated as alive. Dead pid
  /// (same host) => false immediately; otherwise false only after the
  /// heartbeat counter stays unchanged for longer than its TTL.
  bool Alive(const LeaseInfo& info);

 private:
  struct Observation {
    uint64_t heartbeat = 0;
    std::chrono::steady_clock::time_point changed_at;
  };
  std::map<std::string, Observation> seen_;
};

}  // namespace sparsify::lease

#endif  // SPARSIFY_UTIL_LEASE_H_
