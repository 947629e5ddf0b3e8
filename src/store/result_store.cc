#include "src/store/result_store.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "src/obs/trace.h"
#include "src/store/record_codec.h"
#include "src/util/errors.h"
#include "src/util/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define SPARSIFY_STORE_HAS_POSIX 1
#endif

namespace sparsify {

namespace {

namespace fs = std::filesystem;
using store_codec::CellKeyView;

FsyncPolicy FsyncPolicyFromEnv(FsyncPolicy fallback) {
  const char* env = std::getenv("SPARSIFY_STORE_FSYNC");
  if (env == nullptr || *env == '\0') return fallback;
  const std::string v = env;
  if (v == "none") return FsyncPolicy::kNone;
  if (v == "batch") return FsyncPolicy::kBatch;
  if (v == "always") return FsyncPolicy::kAlways;
  throw std::invalid_argument(
      "SPARSIFY_STORE_FSYNC: expected none|batch|always, got '" + v + "'");
}

uint64_t SegmentBytesFromEnv(uint64_t fallback) {
  const char* env = std::getenv("SPARSIFY_STORE_SEGMENT_BYTES");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || v == 0) {
    throw std::invalid_argument(
        std::string("SPARSIFY_STORE_SEGMENT_BYTES: expected bytes > 0, "
                    "got '") +
        env + "'");
  }
  return v;
}

// The compaction/merge output inside a store directory.
constexpr char kBaseName[] = "results.jsonl";

// The file whose kernel lock a writable open holds.
constexpr char kLockName[] = "writer.lock";

// A writer rotates to its next segment once the current one reaches this
// size; SPARSIFY_STORE_SEGMENT_BYTES overrides it.
constexpr uint64_t kSegmentBytes = 64ull << 20;

// Appends between fsyncs under FsyncPolicy::kBatch. Small enough that a
// power loss costs at most one batch of ~200-byte records, large enough
// that fsync latency amortizes out of the append path.
constexpr uint64_t kFsyncBatchInterval = 32;

long OwnPid() {
#ifdef SPARSIFY_STORE_HAS_POSIX
  return static_cast<long>(::getpid());
#else
  return 0;
#endif
}

// The whole-file write lock request for F_OFD_SETLK / F_OFD_GETLK.
#ifdef F_OFD_SETLK
struct flock WholeFileWriteLock() {
  struct flock lock = {};
  lock.l_type = F_WRLCK;
  lock.l_whence = SEEK_SET;
  return lock;  // l_start = l_len = 0: the whole file
}
#endif

// True when a writable open holds the lock of store directory `dir`.
// F_OFD_GETLK only tests, so a reader never makes a starting writer fail,
// and a missing lock file means no writer ever opened the directory.
bool HeldByWriter(const std::string& dir) {
#ifdef F_OFD_SETLK
  const std::string path = (fs::path(dir) / kLockName).string();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct flock lock = WholeFileWriteLock();
  const bool held = ::fcntl(fd, F_OFD_GETLK, &lock) == 0 &&
                    lock.l_type != F_UNLCK;
  ::close(fd);
  return held;
#else
  (void)dir;
  return false;
#endif
}

// One segment file, `log.<writer>.<seq>.jsonl`.
struct Segment {
  uint64_t seq = 0;
  std::string writer;
  std::string path;
  bool operator<(const Segment& o) const {
    return std::tie(seq, writer) < std::tie(o.seq, o.writer);
  }
};

// Parses a segment file name. Returns false for anything else in the
// directory.
bool ParseSegmentName(const std::string& name, Segment* seg) {
  if (name.rfind("log.", 0) != 0) return false;
  if (name.size() < 11 || name.compare(name.size() - 6, 6, ".jsonl") != 0) {
    return false;
  }
  const std::string middle = name.substr(4, name.size() - 10);
  const size_t dot = middle.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= middle.size()) {
    return false;
  }
  const std::string num = middle.substr(dot + 1);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(num.c_str(), &end, 10);
  if (end != num.c_str() + num.size()) return false;
  seg->writer = middle.substr(0, dot);
  seg->seq = v;
  return true;
}

// All segment files in `dir`, in session order. A writer numbers its
// chain from one past every segment present when it opened, so a later
// session's records replay after an earlier one's. Equal numbers come
// only from the concurrent writers of stores older binaries wrote, whose
// values for equal keys are bit-identical; the writer id fixes the order.
std::vector<Segment> ListSegments(const std::string& dir) {
  std::vector<Segment> segs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    Segment seg;
    if (ParseSegmentName(entry.path().filename().string(), &seg)) {
      seg.path = entry.path().string();
      segs.push_back(std::move(seg));
    }
  }
  std::sort(segs.begin(), segs.end());
  return segs;
}

// Reads all of `path` into `out`. False when the file cannot be opened.
bool ReadFile(const std::string& path, std::string* out) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) return false;
  out->clear();
  if (std::fseek(f.get(), 0, SEEK_END) != 0) return true;
  const long size = std::ftell(f.get());
  if (size <= 0 || std::fseek(f.get(), 0, SEEK_SET) != 0) return true;
  out->resize(static_cast<size_t>(size));
  out->resize(std::fread(out->data(), 1, out->size(), f.get()));
  return true;
}

// The rate's bits as an index key component. %.17g prints every NaN of
// one sign alike, so every NaN of one sign gets one key.
uint64_t RateBits(double rate) {
  if (std::isnan(rate)) {
    rate = std::copysign(std::numeric_limits<double>::quiet_NaN(), rate);
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &rate, sizeof(bits));
  return bits;
}

}  // namespace

std::string CellKey::Canonical() const {
  // '\x1f' (unit separator) cannot appear in the names the framework uses,
  // so joined fields never collide.
  std::string s;
  s.reserve(dataset.size() + sparsifier.size() + metric.size() +
            code_rev.size() + 40);
  s += dataset;
  s.push_back('\x1f');
  s += sparsifier;
  s.push_back('\x1f');
  s += store_codec::FormatDouble(prune_rate);
  s.push_back('\x1f');
  s += std::to_string(run);
  s.push_back('\x1f');
  s += std::to_string(master_seed);
  s.push_back('\x1f');
  s += metric;
  s.push_back('\x1f');
  s += code_rev;
  return s;
}

ResultStore::ResultStore(std::string dir, ResultStoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  fsync_policy_ = FsyncPolicyFromEnv(FsyncPolicy::kBatch);
  segment_bytes_ = SegmentBytesFromEnv(kSegmentBytes);
  SPARSIFY_FAILPOINT("store.lock");
  if (options_.read_only) {
    // A held store's unterminated tail may be an append in progress.
    Replay(/*settle=*/!HeldByWriter(dir_));
    return;
  }
  LockWriter();
  // Orphan temp files of a killed Compact()/Merge(): the rename never
  // happened, so the log is intact and the temp is garbage. Only a
  // writer makes them, and the lock says none is running.
  const std::string prefix = std::string(kBaseName) + ".";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.find(".tmp") != std::string::npos) {
      std::error_code rec;
      fs::remove(entry.path(), rec);
    }
  }
  // Every file's writer is gone: the lock holder is this open.
  Replay(/*settle=*/true);
}

ResultStore::~ResultStore() {
  // Best-effort final flush/sync: the destructor must not throw, but a
  // clean close should leave nothing in the page cache under kBatch.
  std::lock_guard<std::mutex> lock(mu_);
  if (out_.is_open()) out_.flush();
#ifdef SPARSIFY_STORE_HAS_POSIX
  if (sync_fd_ >= 0) {
    if (fsync_policy_ != FsyncPolicy::kNone && appends_since_sync_ > 0) {
      ::fsync(sync_fd_);
    }
    ::close(sync_fd_);
    sync_fd_ = -1;
  }
#endif
}

ResultStore::LockFd::~LockFd() {
#ifdef SPARSIFY_STORE_HAS_POSIX
  if (fd >= 0) ::close(fd);
#endif
}

std::string ResultStore::BasePath() const {
  return (fs::path(dir_) / kBaseName).string();
}

void ResultStore::LockWriter() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
#ifdef F_OFD_SETLK
  // An open-file-description lock: it conflicts with every other open of
  // the file, this process's included, and the kernel drops it when the
  // holder's descriptor closes or its process dies.
  const std::string path = (fs::path(dir_) / kLockName).string();
  lock_.fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_.fd < 0) {
    throw IoError("result store: cannot open lock file " + path);
  }
  struct flock lock = WholeFileWriteLock();
  if (::fcntl(lock_.fd, F_OFD_SETLK, &lock) != 0) {
    if (errno == EAGAIN || errno == EACCES) {
      throw StoreLockHeldError("result store: " + dir_ +
                               " is held by another writer");
    }
    throw IoError("result store: cannot lock " + path);
  }
#endif
}

void ResultStore::Replay(bool settle) {
  TRACE_SPAN(span, "store_replay");
  if (span.active()) span.Detail(dir_);
  SPARSIFY_FAILPOINT("store.replay");
  // The base (compaction output) holds the oldest records; segments
  // follow in session order.
  ReplayFile(BasePath(), settle);
  for (const Segment& seg : ListSegments(dir_)) {
    next_segment_ = std::max(next_segment_, seg.seq + 1);
    ReplayFile(seg.path, settle);
  }
}

void ResultStore::ReplayFile(const std::string& file, bool settle) {
  std::string content;
  if (!ReadFile(file, &content)) return;
  size_t lines = 0;
  const size_t kept = AbsorbLines(file, content, settle, &lines);
  if (options_.read_only) return;
  // Leave a gone writer's file in whole-line form, or remove it when no
  // record survives. Failures are harmless: the next open decides the
  // same way.
  std::error_code ec;
  if (lines <= 1) {
    fs::remove(file, ec);
  } else if (kept < content.size()) {
    fs::resize_file(file, kept, ec);
  } else if (content.back() != '\n') {
    std::ofstream(file, std::ios::binary | std::ios::app) << '\n';
  }
}

size_t ResultStore::AbsorbLines(const std::string& file,
                                std::string_view content, bool settle,
                                size_t* lines) {
  store_codec::DecodedLine decoded;  // reused: the fast path allocates nothing
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < content.size()) {
    const size_t nl = content.find('\n', pos);
    const bool terminated = nl != std::string_view::npos;
    if (!terminated && !settle) break;  // partial line: writer mid-append
    const size_t end = terminated ? nl : content.size();
    const std::string_view line = content.substr(pos, end - pos);
    const char* bad = nullptr;  // what is wrong with the line, if anything
    if (line_no == 0) {
      if (!store_codec::ParseHeader(line)) {
        bad = "bad header (not a result-store log)";
      }
    } else {
      store_codec::DecodeRecordLine(line, /*fast=*/true, &decoded);
      bad = decoded.bad;
      if (bad == nullptr) {
        // A claim line, written by binaries that ran a shard scheduler,
        // is checksummed like a record and carries nothing to fold.
        if (decoded.kind == store_codec::LineKind::kCell) {
          InsertLocked(PackLocked(decoded.key), decoded.outcome,
                       /*from_file=*/true);
        }
        ++log_records_;
      }
    }
    if (bad != nullptr) {
      if (!terminated) {
        // The torn tail of a gone writer's crashed append, not corruption.
        dropped_tail_bytes_ += end - pos;
        break;
      }
      // A writer never leaves a terminated-but-garbled line: this is bit
      // rot, and skipping it would fabricate results.
      throw StoreCorruptError("result store: " + std::string(bad) +
                              " at line " + std::to_string(line_no + 1) +
                              " of " + file);
    }
    ++line_no;
    pos = terminated ? end + 1 : end;
  }
  *lines = line_no;
  return pos;
}

size_t ResultStore::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

size_t ResultStore::ErrorCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_.size();
}

bool ResultStore::Contains(const CellKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindLocked(key) != nullptr;
}

std::optional<StoredOutcome> ResultStore::Lookup(const CellKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t* entry = FindLocked(key);
  if (entry == nullptr) return std::nullopt;
  return OutcomeLocked(*entry);
}

std::vector<StoredCell> ResultStore::Cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StoredCell> cells(entries_.size());
  for (uint32_t i = 0; i < entries_.size(); ++i) {
    StoredCell& cell = cells[i];
    static_cast<StoredOutcome&>(cell) = OutcomeLocked(i);
    const CellKeyView key = KeyViewLocked(entries_[i].key);
    cell.key.dataset = key.dataset;
    cell.key.sparsifier = key.sparsifier;
    cell.key.prune_rate = key.prune_rate;
    cell.key.run = key.run;
    cell.key.master_seed = key.master_seed;
    cell.key.metric = key.metric;
    cell.key.code_rev = key.code_rev;
  }
  return cells;
}

size_t ResultStore::PackedKeyHash::operator()(const PackedKey& k) const {
  // Multiply-xorshift over the key's five 64-bit words.
  const uint64_t words[] = {
      k.dataset | static_cast<uint64_t>(k.sparsifier) << 32,
      k.metric | static_cast<uint64_t>(k.code_rev) << 32,
      static_cast<uint32_t>(k.run), k.rate_bits, k.master_seed};
  uint64_t h = 0;
  for (uint64_t w : words) {
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
  }
  return static_cast<size_t>(h);
}

uint32_t ResultStore::InternLocked(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

ResultStore::PackedKey ResultStore::PackLocked(const CellKeyView& key) {
  PackedKey packed;
  packed.dataset = InternLocked(key.dataset);
  packed.sparsifier = InternLocked(key.sparsifier);
  packed.metric = InternLocked(key.metric);
  packed.code_rev = InternLocked(key.code_rev);
  packed.run = key.run;
  packed.rate_bits = RateBits(key.prune_rate);
  packed.master_seed = key.master_seed;
  return packed;
}

const uint32_t* ResultStore::FindLocked(const CellKey& key) const {
  auto id = [&](const std::string& name, uint32_t* out) {
    auto it = name_ids_.find(name);
    if (it == name_ids_.end()) return false;  // never stored
    *out = it->second;
    return true;
  };
  PackedKey packed;
  if (!id(key.dataset, &packed.dataset) ||
      !id(key.sparsifier, &packed.sparsifier) ||
      !id(key.metric, &packed.metric) || !id(key.code_rev, &packed.code_rev)) {
    return nullptr;
  }
  packed.run = key.run;
  packed.rate_bits = RateBits(key.prune_rate);
  packed.master_seed = key.master_seed;
  auto it = index_.find(packed);
  return it == index_.end() ? nullptr : &it->second;
}

CellKeyView ResultStore::KeyViewLocked(const PackedKey& key) const {
  CellKeyView view;
  view.dataset = names_[key.dataset];
  view.sparsifier = names_[key.sparsifier];
  std::memcpy(&view.prune_rate, &key.rate_bits, sizeof(view.prune_rate));
  view.run = key.run;
  view.master_seed = key.master_seed;
  view.metric = names_[key.metric];
  view.code_rev = names_[key.code_rev];
  return view;
}

StoredOutcome ResultStore::OutcomeLocked(uint32_t entry) const {
  const Entry& e = entries_[entry];
  if (e.is_error) return errors_.at(entry);
  StoredOutcome outcome;
  outcome.achieved_prune_rate = e.achieved_prune_rate;
  outcome.value = e.value;
  return outcome;
}

void ResultStore::InsertLocked(const PackedKey& key,
                               const StoredOutcome& outcome, bool from_file) {
  const auto [it, inserted] =
      index_.try_emplace(key, static_cast<uint32_t>(entries_.size()));
  const uint32_t i = it->second;
  if (inserted) {
    entries_.push_back(Entry{key});
  } else if (from_file && outcome.is_error && !entries_[i].is_error) {
    // A replayed error never shadows a completed result: equal keys carry
    // bit-identical values across writers, so any success IS the value;
    // the error just means some attempt failed.
    return;
  }
  // Last write wins and keeps the key's first-seen position.
  Entry& slot = entries_[i];
  slot.achieved_prune_rate = outcome.achieved_prune_rate;
  slot.value = outcome.value;
  slot.is_error = outcome.is_error;
  if (outcome.is_error) {
    errors_[i] = outcome;
  } else if (!inserted) {
    errors_.erase(i);
  }
}

void ResultStore::OpenSegmentLocked() {
  if (out_.is_open()) {
    SPARSIFY_FAILPOINT("store.rotate");
    CloseWriterLocked();
  }
  char seq[24];
  std::snprintf(seq, sizeof(seq), "%06llu",
                static_cast<unsigned long long>(next_segment_++));
  append_path_ = (fs::path(dir_) / ("log.w" + std::to_string(OwnPid()) +
                                    "." + seq + ".jsonl"))
                     .string();
  out_.open(append_path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw IoError("result store: cannot open " + append_path_ +
                  " for append");
  }
  const std::string header = store_codec::SerializeHeader();
  out_ << header;
  append_path_bytes_ = header.size();
#ifdef SPARSIFY_STORE_HAS_POSIX
  // ofstream gives no access to its descriptor, and fsync needs one; a
  // second descriptor on the same file syncs the same data.
  sync_fd_ = ::open(append_path_.c_str(), O_WRONLY | O_CLOEXEC);
  if (sync_fd_ < 0 && fsync_policy_ != FsyncPolicy::kNone) {
    throw IoError("result store: cannot open " + append_path_ +
                  " for fsync");
  }
#endif
}

void ResultStore::SyncLocked(bool closing) {
  if (fsync_policy_ == FsyncPolicy::kNone) {
    appends_since_sync_ = 0;
    return;
  }
  const uint64_t interval =
      fsync_policy_ == FsyncPolicy::kAlways ? 1 : kFsyncBatchInterval;
  if (!closing && appends_since_sync_ < interval) return;
  if (appends_since_sync_ == 0) return;
  SPARSIFY_FAILPOINT("store.fsync");
#ifdef SPARSIFY_STORE_HAS_POSIX
  if (sync_fd_ >= 0 && ::fsync(sync_fd_) != 0) {
    throw IoError("result store: fsync failed on " + append_path_);
  }
#endif
  appends_since_sync_ = 0;
}

void ResultStore::CloseWriterLocked() {
  if (out_.is_open()) {
    out_.flush();
    if (!out_) {
      throw IoError("result store: write failure on " + append_path_);
    }
    SyncLocked(/*closing=*/true);
    out_.close();
  }
#ifdef SPARSIFY_STORE_HAS_POSIX
  if (sync_fd_ >= 0) {
    ::close(sync_fd_);
    sync_fd_ = -1;
  }
#endif
}

void ResultStore::AppendRecordLocked(const std::string& line) {
  if (options_.read_only) {
    throw IoError("result store: " + dir_ +
                  " was opened read-only (snapshot)");
  }
  if (!out_.is_open() || append_path_bytes_ >= segment_bytes_) {
    OpenSegmentLocked();
  }
  SPARSIFY_FAILPOINT("store.append");
  out_ << line;
  out_.flush();
  if (!out_) {
    throw IoError("result store: write failure on " + append_path_);
  }
  ++log_records_;
  ++appends_since_sync_;
  SyncLocked(/*closing=*/false);
  append_path_bytes_ += line.size();
}

void ResultStore::Append(const CellKey& key, double achieved_prune_rate,
                         double value) {
  // The line and its checksum are built before the lock: workers wait
  // only for each other's writes, not for each other's formatting.
  const CellKeyView view(key);
  StoredOutcome outcome;
  outcome.achieved_prune_rate = achieved_prune_rate;
  outcome.value = value;
  const std::string line = store_codec::SerializeRecord(view, outcome);
  std::lock_guard<std::mutex> lock(mu_);
  AppendRecordLocked(line);
  InsertLocked(PackLocked(view), outcome, /*from_file=*/false);
}

void ResultStore::AppendError(const CellKey& key,
                              const std::string& error_class,
                              const std::string& error_message,
                              int attempts) {
  const CellKeyView view(key);
  StoredOutcome outcome;
  outcome.is_error = true;
  outcome.error_class = error_class;
  outcome.error_message = error_message;
  outcome.attempts = attempts;
  const std::string line = store_codec::SerializeRecord(view, outcome);
  std::lock_guard<std::mutex> lock(mu_);
  AppendRecordLocked(line);
  InsertLocked(PackLocked(view), outcome, /*from_file=*/false);
}

void ResultStore::RewriteLogLocked(const std::string& tmp,
                                   const char* fp_write,
                                   const char* fp_rename) {
  // Write the replacement log beside the original, then rename over it.
  // A crash before the rename leaves the old log plus an orphan temp
  // (swept by the next writable open); a crash after the rename but
  // before the segment unlinks replays to the same contents (the folded
  // records shadow the segments). Either way the store opens clean.
  SPARSIFY_FAILPOINT(fp_write);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw IoError("result store: cannot open " + tmp + " for rewrite");
    }
    out << store_codec::SerializeHeader();
    for (uint32_t i = 0; i < entries_.size(); ++i) {
      out << store_codec::SerializeRecord(KeyViewLocked(entries_[i].key),
                                          OutcomeLocked(i));
    }
    out.flush();
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw IoError("result store: write failure on " + tmp);
    }
  }
#ifdef SPARSIFY_STORE_HAS_POSIX
  if (fsync_policy_ != FsyncPolicy::kNone) {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0 || ::fsync(fd) != 0) {
      if (fd >= 0) ::close(fd);
      std::error_code ec;
      fs::remove(tmp, ec);
      throw IoError("result store: fsync failed on " + tmp);
    }
    ::close(fd);
  }
#endif
  SPARSIFY_FAILPOINT(fp_rename);
  fs::rename(tmp, BasePath());
  // The folded segments are garbage now, this writer's own included.
  for (const Segment& seg : ListSegments(dir_)) {
    std::error_code ec;
    fs::remove(seg.path, ec);
  }
  log_records_ = entries_.size();
  append_path_.clear();
  append_path_bytes_ = 0;
}

CompactStats ResultStore::Compact() {
  TRACE_SPAN(span, "store_compact");
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.read_only) {
    throw IoError("result store: " + dir_ +
                  " was opened read-only (snapshot)");
  }
  CompactStats stats;
  stats.records_before = log_records_;
  stats.records_after = entries_.size();
  {
    std::error_code ec;
    const auto size = fs::file_size(BasePath(), ec);
    if (!ec) stats.bytes_before = size;
    for (const Segment& seg : ListSegments(dir_)) {
      const auto seg_size = fs::file_size(seg.path, ec);
      if (!ec) stats.bytes_before += seg_size;
    }
  }
  CloseWriterLocked();
  RewriteLogLocked(BasePath() + ".compact.tmp", "store.compact.write",
                   "store.compact.rename");
  {
    std::error_code ec;
    const auto size = fs::file_size(BasePath(), ec);
    if (!ec) stats.bytes_after = size;
  }
  return stats;
}

void ResultStore::Merge(const std::vector<const ResultStore*>& inputs) {
  TRACE_SPAN(span, "store_merge_commit");
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.read_only) {
    throw IoError("result store: " + dir_ +
                  " was opened read-only (snapshot)");
  }
  CloseWriterLocked();

  for (const ResultStore* in : inputs) {
    std::lock_guard<std::mutex> in_lock(in->mu_);
    std::vector<uint32_t> ids;  // the input's name ids -> this store's
    ids.reserve(in->names_.size());
    for (const std::string& name : in->names_) {
      ids.push_back(InternLocked(name));
    }
    for (uint32_t i = 0; i < in->entries_.size(); ++i) {
      PackedKey key = in->entries_[i].key;
      key.dataset = ids[key.dataset];
      key.sparsifier = ids[key.sparsifier];
      key.metric = ids[key.metric];
      key.code_rev = ids[key.code_rev];
      InsertLocked(key, in->OutcomeLocked(i), /*from_file=*/true);
    }
  }
  RewriteLogLocked(BasePath() + ".merge.tmp", "store.merge.write",
                   "store.merge.rename");
}

FsyncPolicy ResultStore::fsync_policy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsync_policy_;
}

}  // namespace sparsify
