// Typed error hierarchy: the library's failure classes.
//
// Every layer that can fail in a way a caller might handle differently
// throws one of these instead of a bare std::runtime_error, so the CLI
// can map uncaught exceptions to distinct documented exit codes (see
// sparsify_cli.h) and the engine can decide whether a failed unit is
// worth retrying. All classes derive from std::runtime_error, so code
// (and tests) written against the old untyped throws keeps working.
//
// Retry classification: TransientError marks failures where retrying the
// exact same computation may succeed (resource pressure, injected
// transient faults, interrupted syscalls). Everything else is permanent:
// retrying a deterministic computation that threw will throw again, so
// the engine records a typed error record instead of burning retries.
#ifndef SPARSIFY_UTIL_ERRORS_H_
#define SPARSIFY_UTIL_ERRORS_H_

#include <stdexcept>
#include <string>

namespace sparsify {

/// Root of the typed hierarchy. Catch-all handlers should still catch
/// std::exception — not everything in the process throws typed errors.
class SparsifyError : public std::runtime_error {
 public:
  explicit SparsifyError(const std::string& what)
      : std::runtime_error(what) {}
};

/// I/O failure: unreadable input, failed write/flush/fsync, rename.
class IoError : public SparsifyError {
 public:
  explicit IoError(const std::string& what) : SparsifyError(what) {}
};

/// A writable store open found the directory's writer lock held by
/// another writable open, in this process or another: a store has one
/// writer at a time (CLI exit code 3).
class StoreLockHeldError : public SparsifyError {
 public:
  explicit StoreLockHeldError(const std::string& what)
      : SparsifyError(what) {}
};

/// Persistent data failed validation: bad header, unsupported version,
/// CRC mismatch, interior corruption, graph-cache hash mismatch.
class StoreCorruptError : public SparsifyError {
 public:
  explicit StoreCorruptError(const std::string& what)
      : SparsifyError(what) {}
};

/// Retryable failure class: the same computation, retried, may succeed.
/// The engine retries these with capped exponential backoff (at most
/// kMaxUnitRetries extra attempts); every other exception type is
/// permanent.
class TransientError : public SparsifyError {
 public:
  explicit TransientError(const std::string& what) : SparsifyError(what) {}
};

/// Cooperative cancellation tripped (src/util/cancel.h): a CancelToken
/// the computation was polling was cancelled. Not a retry candidate in
/// place — the engine either skips the unit (run-level cancellation,
/// nothing recorded, resume resubmits) or records it as a typed error.
class CancelledError : public SparsifyError {
 public:
  explicit CancelledError(const std::string& what) : SparsifyError(what) {}
};

/// A deadline expired (a stage's --stage-timeout, or a run-level
/// --deadline). Derives from CancelledError so generic cancellation
/// handlers see both; the engine records stage deadlines as "deadline"
/// error records, which resume treats as missing.
class DeadlineExceededError : public CancelledError {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : CancelledError(what) {}
};

}  // namespace sparsify

#endif  // SPARSIFY_UTIL_ERRORS_H_
