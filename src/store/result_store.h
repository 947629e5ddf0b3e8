// Append-only persistent store of completed experiment cells, shared by
// cooperating writer processes.
//
// A store is a directory. Every writer, a lone one included, appends only
// to its own segment chain (`log.<writer>.<n>.jsonl`); `results.jsonl`
// exists only as the atomic output of Compact()/Merge(). Every
// file is a self-describing version-2 header line followed by one flat
// JSON object per record, each carrying a CRC-32C, and an error-record
// kind lets a resumed sweep resubmit the units that failed.
//
// Records are appended and flushed one at a time, so a writer that dies
// leaves a valid prefix plus at most one torn tail line. Replay is one
// pass over every file: terminated lines are absorbed (a corrupt one is
// fatal at open), and the unterminated tail of a writer that holds no
// live lease is settled in the same pass — a whole record that lost only
// its newline is re-terminated, anything else is cut and counted in
// DroppedTailBytes(). Multi-writer coordination is lease-based (see
// util/lease.h). Replay folds files in acquisition order, last write wins
// by CellKey, except that a record read from a file never downgrades a
// success to an error (equal keys carry bit-identical values, so any
// surviving success is THE value). See README.md in this directory for
// the layout, the lease state machine, and the crash-recovery contract.
#ifndef SPARSIFY_STORE_RESULT_STORE_H_
#define SPARSIFY_STORE_RESULT_STORE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/store/cell_key.h"
#include "src/util/lease.h"

namespace sparsify {

namespace store_codec {
struct CellKeyView;
}  // namespace store_codec

/// What the store holds for one key: the cell's results, or — when
/// `is_error` — the failure that kept the cell from completing. Error
/// records occupy the same key space as results, so a later success
/// simply overwrites the error (last write wins).
struct StoredOutcome {
  double achieved_prune_rate = 0.0;
  double value = 0.0;
  bool is_error = false;
  std::string error_class;    // "transient" | "permanent" (empty for results)
  std::string error_message;  // sanitized what() of the failure
  int attempts = 0;           // tries consumed before giving up (errors only)
};

/// One replayed or appended record: the key plus its outcome.
struct StoredCell : StoredOutcome {
  CellKey key;
};

/// One shard-scheduler claim record: `writer` announced it is computing
/// chunk `chunk` of the work partition identified by `scope` (a hash of
/// the grid, so claims from incompatible grids are ignored). Claims live
/// in the claimant's own segment — no cross-process write contention —
/// and are dropped by Compact(): they only matter while a sweep runs.
struct StoredClaim {
  std::string writer;
  std::string scope;
  uint64_t chunk = 0;
};

/// What Compact() did: how many log lines and bytes the rewrite removed.
struct CompactStats {
  size_t records_before = 0;  // record lines in the log pre-compaction
  size_t records_after = 0;   // distinct keys written out
  uintmax_t bytes_before = 0;
  uintmax_t bytes_after = 0;
};

/// When appended records are fsync'd (flush-to-OS always happens; this
/// controls flush-to-disk). Default kBatch; the SPARSIFY_STORE_FSYNC
/// environment variable (none|batch|always) overrides it at open.
enum class FsyncPolicy {
  kNone,    // never fsync (fastest; a power loss may drop recent records)
  kBatch,   // fsync every ~32 appends and on clean close
  kAlways,  // fsync every append (torture-harness mode)
};

/// Open-time knobs. The lease TTL is not one: a writer whose heartbeat
/// has not advanced for longer than SPARSIFY_LEASE_TTL seconds (default
/// 30; see lease.h), or whose pid is dead, is stale, and its claims become
/// stealable. Renewals happen every ttl/4.
struct ResultStoreOptions {
  /// Snapshot open for `export` / `ls` / `merge` inputs: no lease is
  /// taken, nothing in the directory is mutated, a live sweep's store can
  /// be inspected mid-run. Append/Compact throw on a read-only store.
  bool read_only = false;
};

/// Durable map from CellKey to results, backed by append-only JSONL logs.
///
/// Thread-safety: all methods are internally synchronized; Append is safe
/// to call from engine worker threads. Cross-process coordination is
/// COOPERATIVE: any number of writers may hold the same store directory
/// open, each appending to its own segment under a heartbeat lease.
/// Whole-store rewrites (Compact, Merge) still demand
/// exclusivity and throw StoreLockHeldError while other writers are live.
class ResultStore {
 public:
  /// The only format version read or written: CRC'd records + error kind.
  static constexpr int kFormatVersion = 2;

  /// Opens (and replays) the store in directory `dir`. A writable open
  /// creates the directory; a missing directory is an empty store. Throws
  /// StoreCorruptError when a log file is not a result-store log (bad
  /// header), has a corrupt or checksum-failing record before its final
  /// line, or has an unsupported version; IoError on filesystem failures.
  /// (All derive from std::runtime_error.)
  explicit ResultStore(std::string dir, ResultStoreOptions options = {});

  /// Flushes (per the fsync policy, best-effort), stops the heartbeat,
  /// and releases the lease.
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& Dir() const { return dir_; }

  /// This instance's unique writer id (empty on a read-only open).
  const std::string& WriterId() const { return writer_id_; }

  bool read_only() const { return options_.read_only; }

  /// Number of distinct keys currently stored (results AND error records).
  size_t Size() const;

  /// Number of keys whose latest record is an error.
  size_t ErrorCount() const;

  bool Contains(const CellKey& key) const;

  /// The key's outcome. A result copies no string; an error record
  /// carries its class and message.
  std::optional<StoredOutcome> Lookup(const CellKey& key) const;

  /// All cells in first-seen order. A key appended twice keeps its original
  /// position with the latest values (last write wins on replay too).
  std::vector<StoredCell> Cells() const;

  /// All claim records seen so far (replayed + own + refreshed), in
  /// observation order. Duplicates (re-claims, steals) are all kept: the
  /// scheduler judges liveness per claimant.
  std::vector<StoredClaim> Claims() const;

  /// Bytes of torn tails of gone writers seen at open (0 for clean logs).
  /// A writable open cuts them; a read-only open only counts them.
  size_t DroppedTailBytes() const { return dropped_tail_bytes_; }

  /// Durably appends one record to this writer's own segment: the line is
  /// written and flushed before returning, and the in-memory index is
  /// updated. Throws IoError when the write, flush, or (policy-dependent)
  /// fsync fails — a result the caller believes persisted MUST actually be
  /// on its way to disk.
  void Append(const CellKey& key, double achieved_prune_rate, double value);

  /// Appends an error record for `key`: the unit failed with
  /// `error_class` ("transient" or "permanent") after `attempts` tries.
  /// Replaces any previous record for the key in the index; a later
  /// successful Append for the same key supersedes it in turn.
  void AppendError(const CellKey& key, const std::string& error_class,
                   const std::string& error_message, int attempts);

  /// Appends a claim record (this writer claims `chunk` of `scope`) to
  /// this writer's own segment, durably like Append.
  void AppendClaim(const std::string& scope, uint64_t chunk);

  /// Incrementally absorbs newly TERMINATED lines from peers' segments
  /// (every segment but this writer's own). A partially flushed final
  /// line stays pending — the peer may still be writing it. Corruption
  /// inside a peer file poisons that file (its remaining lines are
  /// ignored, a counter records it) instead of failing the live sweep.
  /// Returns the number of cell records absorbed.
  size_t RefreshPeers();

  /// True when `writer` should be treated as alive: it is this writer, or
  /// its lease file exists and its pid/heartbeat pass the staleness check
  /// (see util/lease.h). A released or reaped lease reads as dead.
  bool WriterAlive(const std::string& writer) const;

  /// Rewrites the store to one record per live key (dropping superseded
  /// duplicates and all claim records; keys whose latest record is still
  /// an error are kept as error records) in `results.jsonl`, folding every
  /// segment into it. Peers' unabsorbed records are absorbed first.
  /// Requires this to be the ONLY live writer — throws
  /// StoreLockHeldError otherwise, so a running sweep can never have the
  /// log rewritten under it. Atomic: writes a temp file beside the log,
  /// fsyncs it, renames over the base, then unlinks the folded segments —
  /// a crash at any point replays to the same contents. Returns what was
  /// reclaimed.
  CompactStats Compact();

  /// The `merge` subcommand's commit step: folds every record of
  /// `inputs` (other stores, typically read-only snapshots) into this one
  /// in order, by the replay rule — a later record wins, except that an
  /// error never replaces a success — then atomically rewrites the store
  /// as one file. Same exclusivity, atomicity, and segment-folding rules
  /// as Compact(); the temp file is `results.jsonl.merge.tmp.<pid>` so a
  /// killed merge leaves a recognizable orphan for the open-time sweep.
  void Merge(const std::vector<const ResultStore*>& inputs);

  /// The fsync policy in force (from SPARSIFY_STORE_FSYNC at open).
  FsyncPolicy fsync_policy() const;

 private:
  // Per log-file replay state: the file's bytes before `consumed` are
  // absorbed. A closed file is never read again: its writer is gone (its
  // tail was settled at open) or it is poisoned.
  struct LogFile {
    size_t consumed = 0;  // offset one past the last absorbed line
    size_t line_no = 0;   // lines absorbed (0 = header not yet seen)
    bool closed = false;
  };

  void AcquireLeaseLocked();      // caller holds the lease-dir flock
  void ReapStaleWritersLocked();  // caller holds the lease-dir flock
  void RequireSoleWriter(const char* op);
  void StartHeartbeat();
  void StopHeartbeat();

  // Replays every log file in acquisition order. A writable open runs it
  // under the lease-dir flock, so settling a gone writer's tail never
  // races another opener.
  void Replay();
  void ReplayFile(const std::string& file, bool settle);
  // The one line absorber. `view` holds the file's bytes from
  // state.consumed on. Terminated lines are absorbed; a corrupt one throws
  // when `strict` (at open), else poisons the file (mid-run refresh).
  // With `settle` (the writer is gone) the unterminated tail is final: a
  // whole valid line is absorbed, anything else is counted as dropped.
  // Returns cell records absorbed.
  size_t AbsorbLines(const std::string& file, LogFile& state,
                     std::string_view view, bool strict, bool settle);
  size_t RefreshPeersLocked();

  std::string BasePath() const;
  void OpenSegmentLocked();  // closes the current segment, opens the next
  void AppendRecordLocked(const std::string& line);
  void SyncLocked(bool closing);  // fsync per policy; throws IoError
  void CloseWriterLocked();       // flush + final sync + close fds

  // The index key: interned ids of the key's names, the rate's bit
  // pattern (NaNs folded to one per sign, as %.17g prints them), run and
  // seed. Equal exactly when CellKey::Canonical() strings are.
  struct PackedKey {
    uint32_t dataset = 0;
    uint32_t sparsifier = 0;
    uint32_t metric = 0;
    uint32_t code_rev = 0;
    int32_t run = 0;
    uint64_t rate_bits = 0;
    uint64_t master_seed = 0;
    bool operator==(const PackedKey&) const = default;
  };
  struct PackedKeyHash {
    size_t operator()(const PackedKey& k) const;
  };
  // Heterogeneous hash, so names are looked up by string_view.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  // One key's latest record; an error record's details live in errors_.
  struct Entry {
    PackedKey key;
    double achieved_prune_rate = 0.0;
    double value = 0.0;
    bool is_error = false;
  };

  uint32_t InternLocked(std::string_view name);
  PackedKey PackLocked(const store_codec::CellKeyView& key);
  // Null when the key was never stored (no interning, no allocation).
  const uint32_t* FindLocked(const CellKey& key) const;
  store_codec::CellKeyView KeyViewLocked(const PackedKey& key) const;
  StoredOutcome OutcomeLocked(uint32_t entry) const;
  void InsertLocked(const PackedKey& key, const StoredOutcome& outcome,
                    bool from_file);
  // Shared commit step of Compact/Merge: writes header + every entry to
  // `tmp`, fsyncs, renames over the base, unlinks segments.
  void RewriteLogLocked(const std::string& tmp, const char* fp_write,
                        const char* fp_rename);

  mutable std::mutex mu_;
  std::string dir_;
  ResultStoreOptions options_;
  double lease_ttl_seconds_ = 0;  // SPARSIFY_LEASE_TTL or the default
  uint64_t segment_bytes_ = 0;  // rotation threshold
  std::string writer_id_;       // empty on read-only opens
  std::ofstream out_;
  std::string append_path_;         // this writer's current segment
  uint64_t append_path_bytes_ = 0;  // its size (rotation threshold check)
  uint64_t next_segment_ = 0;       // sequence of this writer's next segment
  std::deque<std::string> names_;  // id -> name (stable addresses)
  std::unordered_map<std::string, uint32_t, NameHash, std::equal_to<>>
      name_ids_;
  std::vector<Entry> entries_;  // first-seen order
  std::unordered_map<PackedKey, uint32_t, PackedKeyHash> index_;
  std::unordered_map<uint32_t, StoredOutcome> errors_;  // entries_ idx
  std::vector<StoredClaim> claims_;
  std::map<std::string, LogFile> files_;  // log path -> replay state
  size_t dropped_tail_bytes_ = 0;
  size_t log_records_ = 0;  // record lines in the log (incl. dupes)
  int sync_fd_ = -1;  // fsync descriptor for the log (ofstream hides its fd)
  FsyncPolicy fsync_policy_ = FsyncPolicy::kBatch;
  uint64_t appends_since_sync_ = 0;

  // Lease heartbeat machinery. The prober is mutable state shared by
  // WriterAlive callers; renew failures are absorbed (the next renewal
  // recreates the lease file — worst case a peer steals our claims and
  // recomputes bit-identical values).
  mutable lease::LivenessProber prober_;
  uint64_t heartbeat_ = 0;
  std::thread heartbeat_thread_;
  std::mutex heartbeat_mu_;
  std::condition_variable heartbeat_cv_;
  bool heartbeat_stop_ = false;
};

}  // namespace sparsify

#endif  // SPARSIFY_STORE_RESULT_STORE_H_
