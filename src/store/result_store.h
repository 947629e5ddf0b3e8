// Append-only persistent store of completed experiment cells, with one
// writer per directory.
//
// A store is a directory. Its writer appends only to its own segment
// chain (`log.<writer>.<n>.jsonl`); `results.jsonl` exists only as the
// atomic output of Compact()/Merge(). Every file is a self-describing
// version-2 header line followed by one flat JSON object per record, each
// carrying a CRC-32C, and an error-record kind lets a resumed sweep
// resubmit the units that failed.
//
// A writable open holds an exclusive kernel lock on the directory's
// `writer.lock` for its lifetime; a second writable open, in this process
// or another, throws StoreLockHeldError. The kernel drops the lock when
// its holder dies, so no liveness protocol is needed. Records are
// appended and flushed one at a time, so a writer that dies leaves a
// valid prefix plus at most one torn tail line. Replay is one pass over
// every file: terminated lines are absorbed (a corrupt one is fatal at
// open), and the unterminated tail of a file whose writer is gone is
// settled in the same pass — a whole record that lost only its newline is
// re-terminated, anything else is cut and counted in DroppedTailBytes().
// Replay folds files in segment order, last write wins by CellKey, except
// that a record read from a file never downgrades a success to an error
// (equal keys carry bit-identical values, so any surviving success is THE
// value). See README.md in this directory for the layout, the lock, and
// the crash-recovery contract.
#ifndef SPARSIFY_STORE_RESULT_STORE_H_
#define SPARSIFY_STORE_RESULT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/store/cell_key.h"

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

/// Open-time knobs.
struct ResultStoreOptions {
  /// Snapshot open for `export` / `ls` / `merge` inputs: no lock is taken,
  /// nothing in the directory is created or mutated, and a live sweep's
  /// store can be inspected mid-run. Append/Compact throw on a read-only
  /// store.
  bool read_only = false;
};

/// Durable map from CellKey to results, backed by append-only JSONL logs.
///
/// Thread-safety: all methods are internally synchronized; Append is safe
/// to call from engine worker threads. A writable instance is the only
/// writer of its directory (the kernel lock enforces it across processes
/// and within one), so nothing else can change the files under it.
class ResultStore {
 public:
  /// The only format version read or written: CRC'd records + error kind.
  static constexpr int kFormatVersion = 2;

  /// Opens (and replays) the store in directory `dir`. A writable open
  /// creates the directory, takes the writer lock and settles every
  /// file's tail; a missing directory is an empty store. Throws
  /// StoreLockHeldError when another writable open holds the directory;
  /// StoreCorruptError when a log file is not a result-store log (bad
  /// header), has a corrupt or checksum-failing record before its final
  /// line, or has an unsupported version; IoError on filesystem failures.
  /// (All derive from std::runtime_error.)
  explicit ResultStore(std::string dir, ResultStoreOptions options = {});

  /// Flushes (per the fsync policy, best-effort) and releases the lock.
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& Dir() const { return dir_; }

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

  /// Bytes of torn tails seen at open (0 for clean logs). A writable open
  /// cuts them; a read-only open only counts them, and counts none while
  /// a writer holds the store (its tail may be an append in progress).
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

  /// Rewrites the store to one record per live key (dropping superseded
  /// duplicates and the claim lines older binaries wrote; keys whose
  /// latest record is still an error are kept as error records) in
  /// `results.jsonl`, folding every segment into it. Atomic: writes a
  /// temp file beside the log, fsyncs it, renames over the base, then
  /// unlinks the folded segments — a crash at any point replays to the
  /// same contents. Returns what was reclaimed.
  CompactStats Compact();

  /// The `merge` subcommand's commit step: folds every record of
  /// `inputs` (other stores, typically read-only snapshots) into this one
  /// in order, by the replay rule — a later record wins, except that an
  /// error never replaces a success — then atomically rewrites the store
  /// as one file, like Compact(). A killed merge leaves its temp file
  /// `results.jsonl.merge.tmp` for the next writable open to sweep.
  void Merge(const std::vector<const ResultStore*>& inputs);

  /// The fsync policy in force (from SPARSIFY_STORE_FSYNC at open).
  FsyncPolicy fsync_policy() const;

 private:
  // The writer lock's descriptor; closing it releases the lock, so a
  // constructor that throws after taking it leaves no holder behind.
  struct LockFd {
    int fd = -1;
    LockFd() = default;
    LockFd(const LockFd&) = delete;
    LockFd& operator=(const LockFd&) = delete;
    ~LockFd();
  };

  void LockWriter();  // takes writer.lock; throws StoreLockHeldError

  // Replays every log file in segment order. `settle` is false only for a
  // read-only open of a held store.
  void Replay(bool settle);
  void ReplayFile(const std::string& file, bool settle);
  // The one line absorber. Terminated lines are absorbed, and a corrupt
  // one throws StoreCorruptError. With `settle` (the file's writer is
  // gone) the unterminated tail is final: a whole valid line is absorbed,
  // anything else is counted as dropped. `*lines` receives the lines
  // absorbed, header included. Returns the bytes they span.
  size_t AbsorbLines(const std::string& file, std::string_view content,
                     bool settle, size_t* lines);

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
  LockFd lock_;                 // held by a writable open
  uint64_t segment_bytes_ = 0;  // rotation threshold
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
  size_t dropped_tail_bytes_ = 0;
  size_t log_records_ = 0;  // record lines in the log (incl. dupes)
  int sync_fd_ = -1;  // fsync descriptor for the log (ofstream hides its fd)
  FsyncPolicy fsync_policy_ = FsyncPolicy::kBatch;
  uint64_t appends_since_sync_ = 0;
};

}  // namespace sparsify

#endif  // SPARSIFY_STORE_RESULT_STORE_H_
