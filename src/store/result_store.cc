#include "src/store/result_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/util/crc32c.h"
#include "src/util/errors.h"
#include "src/util/failpoint.h"
#include "src/util/timer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#define SPARSIFY_STORE_HAS_POSIX 1
#endif

namespace sparsify {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Minimal flat-JSON line codec. The store both writes and reads every line,
// so only the subset it emits must round-trip: one object per line, string
// keys, values that are strings or numbers. Doubles use %.17g, which
// round-trips every finite IEEE double (nan/inf are emitted bare and
// accepted back).
// ---------------------------------------------------------------------------

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

struct Field {
  bool is_string = false;
  std::string text;  // unescaped string, or the raw number token
};

using FieldMap = std::map<std::string, Field>;

// Parses one flat JSON object. Returns false on any syntax error (the
// caller decides whether that is a droppable tail or fatal corruption).
bool ParseFlatObject(const std::string& line, FieldMap* out) {
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  auto parse_string = [&](std::string* s) -> bool {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    while (i < line.size()) {
      char c = line[i];
      if (c == '"') {
        ++i;
        return true;
      }
      if (c == '\\') {
        if (i + 1 >= line.size()) return false;
        char esc = line[i + 1];
        i += 2;
        switch (esc) {
          case '"': s->push_back('"'); break;
          case '\\': s->push_back('\\'); break;
          case '/': s->push_back('/'); break;
          case 'n': s->push_back('\n'); break;
          case 't': s->push_back('\t'); break;
          case 'r': s->push_back('\r'); break;
          case 'b': s->push_back('\b'); break;
          case 'f': s->push_back('\f'); break;
          case 'u': {
            if (i + 4 > line.size()) return false;
            char* end = nullptr;
            std::string hex = line.substr(i, 4);
            long code = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4 || code > 0xff) return false;
            s->push_back(static_cast<char>(code));
            i += 4;
            break;
          }
          default:
            return false;
        }
      } else {
        s->push_back(c);
        ++i;
      }
    }
    return false;  // unterminated string
  };

  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (i >= line.size() || line[i] != ':') return false;
      ++i;
      skip_ws();
      Field field;
      if (i < line.size() && line[i] == '"') {
        field.is_string = true;
        if (!parse_string(&field.text)) return false;
      } else {
        // Number (or nan/inf/true/false/null): take the bare token.
        size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}' &&
               line[i] != ' ' && line[i] != '\t') {
          ++i;
        }
        field.text = line.substr(start, i - start);
        if (field.text.empty()) return false;
      }
      (*out)[key] = std::move(field);
      skip_ws();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      return false;
    }
  }
  skip_ws();
  return i == line.size();  // trailing garbage is a parse failure
}

bool GetString(const FieldMap& f, const std::string& key, std::string* out) {
  auto it = f.find(key);
  if (it == f.end() || !it->second.is_string) return false;
  *out = it->second.text;
  return true;
}

bool GetDouble(const FieldMap& f, const std::string& key, double* out) {
  auto it = f.find(key);
  if (it == f.end() || it->second.is_string) return false;
  char* end = nullptr;
  *out = std::strtod(it->second.text.c_str(), &end);
  return end == it->second.text.c_str() + it->second.text.size();
}

bool GetUint64(const FieldMap& f, const std::string& key, uint64_t* out) {
  auto it = f.find(key);
  if (it == f.end() || it->second.is_string) return false;
  char* end = nullptr;
  *out = std::strtoull(it->second.text.c_str(), &end, 10);
  return end == it->second.text.c_str() + it->second.text.size();
}

bool GetInt(const FieldMap& f, const std::string& key, int* out) {
  auto it = f.find(key);
  if (it == f.end() || it->second.is_string) return false;
  char* end = nullptr;
  long v = std::strtol(it->second.text.c_str(), &end, 10);
  if (end != it->second.text.c_str() + it->second.text.size()) return false;
  *out = static_cast<int>(v);
  return true;
}

constexpr char kFormatName[] = "sparsify-result-store";

// The record-final checksum field. The CRC covers the serialized record
// WITHOUT this suffix (i.e. the bytes up to the suffix, plus the closing
// brace), so writer and reader agree without re-serializing.
constexpr char kCrcSuffix[] = ",\"crc32c\":\"";
constexpr size_t kCrcSuffixLen = sizeof(kCrcSuffix) - 1;
constexpr size_t kCrcHexLen = 8;

std::string SerializeHeader() {
  std::string line = "{\"format\":\"";
  line += kFormatName;
  line += "\",\"version\":" +
          std::to_string(ResultStore::kFormatVersion) + "}\n";
  return line;
}

// Takes a serialized record "{...}" (no newline), returns it with the
// checksum spliced in before the closing brace and a trailing newline:
// {...,"crc32c":"xxxxxxxx"}\n
std::string WithCrc(std::string record) {
  const uint32_t crc = Crc32c(record);
  char hex[kCrcHexLen + 1];
  std::snprintf(hex, sizeof(hex), "%08x", crc);
  record.pop_back();  // the '}' the CRC nonetheless covers
  record += kCrcSuffix;
  record += hex;
  record += "\"}\n";
  return record;
}

// True when `line` ends in a well-formed, matching checksum field. A
// record without one is as corrupt as one whose checksum fails.
bool CrcOk(const std::string& line) {
  const size_t p = line.rfind(kCrcSuffix);
  // The suffix must be exactly the final field: ,"crc32c":"XXXXXXXX"}
  if (p == std::string::npos ||
      p + kCrcSuffixLen + kCrcHexLen + 2 != line.size() ||
      line.compare(line.size() - 2, 2, "\"}") != 0) {
    return false;
  }
  uint32_t want = 0;
  for (size_t i = 0; i < kCrcHexLen; ++i) {
    const char c = line[p + kCrcSuffixLen + i];
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a' + 10);
    } else {
      return false;  // writer emits lowercase hex only
    }
    want = (want << 4) | digit;
  }
  // Covered bytes: everything before the suffix, re-closed.
  std::string covered = line.substr(0, p);
  covered += '}';
  return Crc32c(covered) == want;
}

// Record body without checksum or newline; WithCrc finishes the line.
std::string SerializeRecordBody(const StoredCell& cell) {
  std::string line = "{\"dataset\":";
  AppendEscaped(&line, cell.key.dataset);
  line += ",\"sparsifier\":";
  AppendEscaped(&line, cell.key.sparsifier);
  line += ",\"prune_rate\":" + FormatDouble(cell.key.prune_rate);
  line += ",\"run\":" + std::to_string(cell.key.run);
  line += ",\"master_seed\":" + std::to_string(cell.key.master_seed);
  line += ",\"metric\":";
  AppendEscaped(&line, cell.key.metric);
  line += ",\"code_rev\":";
  AppendEscaped(&line, cell.key.code_rev);
  if (cell.is_error) {
    line += ",\"kind\":\"error\",\"error_class\":";
    AppendEscaped(&line, cell.error_class);
    line += ",\"error\":";
    AppendEscaped(&line, cell.error_message);
    line += ",\"attempts\":" + std::to_string(cell.attempts);
  } else {
    line +=
        ",\"achieved_prune_rate\":" + FormatDouble(cell.achieved_prune_rate);
    line += ",\"value\":" + FormatDouble(cell.value);
  }
  line += "}";
  return line;
}

std::string SerializeRecord(const StoredCell& cell) {
  return WithCrc(SerializeRecordBody(cell));
}

std::string SerializeClaim(const StoredClaim& claim) {
  std::string line = "{\"kind\":\"claim\",\"writer\":";
  AppendEscaped(&line, claim.writer);
  line += ",\"scope\":";
  AppendEscaped(&line, claim.scope);
  line += ",\"chunk\":" + std::to_string(claim.chunk);
  line += "}";
  return WithCrc(line);
}

enum class LineKind { kCell, kClaim, kBad };

// Parses a record line into either a cell or a claim. grid_index, an r3
// key component dropped in r4, parses as an ignored extra field, so
// pre-r4 logs still replay (their records simply never match r4 keys).
LineKind ParseLine(const std::string& line, StoredCell* cell,
                   StoredClaim* claim) {
  FieldMap fields;
  if (!ParseFlatObject(line, &fields)) return LineKind::kBad;
  std::string kind;
  const bool has_kind = GetString(fields, "kind", &kind);
  if (has_kind && kind == "claim") {
    if (!GetString(fields, "writer", &claim->writer) ||
        !GetString(fields, "scope", &claim->scope) ||
        !GetUint64(fields, "chunk", &claim->chunk)) {
      return LineKind::kBad;
    }
    return LineKind::kClaim;
  }
  if (!GetString(fields, "dataset", &cell->key.dataset) ||
      !GetString(fields, "sparsifier", &cell->key.sparsifier) ||
      !GetDouble(fields, "prune_rate", &cell->key.prune_rate) ||
      !GetInt(fields, "run", &cell->key.run) ||
      !GetUint64(fields, "master_seed", &cell->key.master_seed) ||
      !GetString(fields, "metric", &cell->key.metric) ||
      !GetString(fields, "code_rev", &cell->key.code_rev)) {
    return LineKind::kBad;
  }
  if (has_kind) {
    if (kind != "error") return LineKind::kBad;  // unknown record kind
    cell->is_error = true;
    if (!GetString(fields, "error_class", &cell->error_class) ||
        !GetString(fields, "error", &cell->error_message)) {
      return LineKind::kBad;
    }
    GetInt(fields, "attempts", &cell->attempts);  // optional
    return LineKind::kCell;
  }
  cell->is_error = false;
  return GetDouble(fields, "achieved_prune_rate",
                   &cell->achieved_prune_rate) &&
                 GetDouble(fields, "value", &cell->value)
             ? LineKind::kCell
             : LineKind::kBad;
}


bool ParseHeader(const std::string& line) {
  FieldMap fields;
  if (!ParseFlatObject(line, &fields)) return false;
  std::string format;
  int version = 0;
  if (!GetString(fields, "format", &format) ||
      !GetInt(fields, "version", &version)) {
    return false;
  }
  if (format != kFormatName) return false;
  if (version != ResultStore::kFormatVersion) {
    throw StoreCorruptError("result store: unsupported version " +
                            std::to_string(version));
  }
  return true;
}

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

// True when `pid` is provably dead on this host. Conservative: any
// answer other than ESRCH (including EPERM) counts as alive.
bool PidProvablyDead(long pid) {
#ifdef SPARSIFY_STORE_HAS_POSIX
  if (pid <= 0) return true;
  return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
#else
  (void)pid;
  return true;  // no liveness oracle: treat orphans as dead
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

// All segment files in `dir`, in acquisition order. A writer numbers its
// chain from one past every segment present when it opened (read under
// the lease-dir flock), so a later session's records replay after an
// earlier one's. Equal numbers belong to concurrent writers, whose values
// for equal keys are bit-identical; the writer id only fixes the order.
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

// Trailing ".<pid>" of an orphan temp-file name; 0 when absent/garbled.
long PidSuffixOf(const std::string& name) {
  const size_t dot = name.rfind('.');
  if (dot == std::string::npos || dot + 1 >= name.size()) return 0;
  const std::string num = name.substr(dot + 1);
  char* end = nullptr;
  const long v = std::strtol(num.c_str(), &end, 10);
  if (end != num.c_str() + num.size()) return 0;
  return v;
}

std::string ReadWholeFile(std::ifstream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
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
  s += FormatDouble(prune_rate);
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
  lease_ttl_seconds_ = lease::TtlFromEnv(lease::kDefaultTtlSeconds);
  segment_bytes_ = SegmentBytesFromEnv(kSegmentBytes);
  SPARSIFY_FAILPOINT("store.lock");
  if (options_.read_only) {
    Replay();
    return;
  }
  writer_id_ = lease::NewWriterId();
  try {
    // One critical section (the flock also creates the directory): no
    // other opener can settle the same gone writer's tail concurrently.
    lease::LeaseDirLock dir_lock(dir_);
    AcquireLeaseLocked();
    Replay();
  } catch (...) {
    // The destructor never runs when the constructor throws: drop the
    // lease here or a failed open would leave a ghost writer for the
    // lease TTL.
    lease::RemoveLease(dir_, writer_id_);
    throw;
  }
  StartHeartbeat();
}

ResultStore::~ResultStore() {
  StopHeartbeat();
  // Best-effort final flush/sync: the destructor must not throw, but a
  // clean close should leave nothing in the page cache under kBatch.
  {
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
  if (!writer_id_.empty()) {
    // Release the lease so peers see this writer as dead immediately
    // (a leaked lease file is reaped as stale by the next acquirer).
    lease::RemoveLease(dir_, writer_id_);
  }
}

std::string ResultStore::BasePath() const {
  return (fs::path(dir_) / kBaseName).string();
}

void ResultStore::AcquireLeaseLocked() {
  SPARSIFY_FAILPOINT("store.lease.acquire");
  ReapStaleWritersLocked();
  lease::LeaseInfo mine;
  mine.writer = writer_id_;
  mine.pid = OwnPid();
  mine.heartbeat = 0;
  mine.ttl_seconds = lease_ttl_seconds_;
  lease::WriteLease(dir_, mine);
}

void ResultStore::ReapStaleWritersLocked() {
  static obs::Counter& reaped = obs::GetCounter("store.reaped_leases");
  // Dead writers lose their lease. Their segments stay: replay settles a
  // gone writer's torn tail and removes its header-only leftovers.
  for (const lease::LeaseInfo& info : lease::ListLeases(dir_)) {
    if (info.writer == writer_id_ || !PidProvablyDead(info.pid)) continue;
    lease::RemoveLease(dir_, info.writer);
    reaped.Add();
  }
  // Orphan temp files from killed Compact()/merge commits: the rename
  // never happened, the log itself is intact, the temp is garbage. Only
  // provably-dead owners are swept — a live process may be mid-commit.
  const std::string base = kBaseName;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const bool is_tmp = name.rfind(base + ".compact.tmp", 0) == 0 ||
                        name.rfind(base + ".merge.tmp", 0) == 0;
    if (!is_tmp) continue;
    const long pid = PidSuffixOf(name);
    if (pid == OwnPid()) continue;
    if (pid == 0 || PidProvablyDead(pid)) {
      std::error_code rec;
      fs::remove(entry.path(), rec);
    }
  }
}

void ResultStore::RequireSoleWriter(const char* op) {
  // Caller holds the lease-dir flock. Reap first so a crashed worker
  // never blocks maintenance forever, then demand exclusivity.
  ReapStaleWritersLocked();
  for (const lease::LeaseInfo& info : lease::ListLeases(dir_)) {
    if (info.writer == writer_id_) continue;
    if (prober_.Alive(info)) {
      throw StoreLockHeldError(std::string("result store: ") + dir_ +
                               " has other live writers (" + op +
                               " needs exclusive access)");
    }
  }
}

void ResultStore::StartHeartbeat() {
  heartbeat_stop_ = false;
  heartbeat_thread_ = std::thread([this] {
    static obs::Counter& renew_failures =
        obs::GetCounter("store.lease_renew_failures");
    const auto interval = std::chrono::duration<double>(
        std::max(0.05, lease_ttl_seconds_ / 4.0));
    std::unique_lock<std::mutex> lk(heartbeat_mu_);
    while (!heartbeat_stop_) {
      if (heartbeat_cv_.wait_for(lk, interval,
                                 [this] { return heartbeat_stop_; })) {
        break;
      }
      lease::LeaseInfo info;
      info.writer = writer_id_;
      info.pid = OwnPid();
      info.heartbeat = ++heartbeat_;
      info.ttl_seconds = lease_ttl_seconds_;
      try {
        // Recreates the lease file if a peer reaped it while this
        // process was wedged; worst case our claims were stolen and the
        // thief recomputed bit-identical values.
        lease::WriteLease(dir_, info);
      } catch (...) {
        renew_failures.Add();
      }
    }
  });
}

void ResultStore::StopHeartbeat() {
  {
    std::lock_guard<std::mutex> lk(heartbeat_mu_);
    if (!heartbeat_thread_.joinable()) return;
    heartbeat_stop_ = true;
  }
  heartbeat_cv_.notify_all();
  heartbeat_thread_.join();
}

void ResultStore::Replay() {
  TRACE_SPAN(span, "store_replay");
  if (span.active()) span.Detail(dir_);
  SPARSIFY_FAILPOINT("store.replay");
  // Records on every exit path (multiple returns, throws on corruption).
  struct ReplayObs {
    Timer timer;
    ~ReplayObs() {
      static obs::Histogram& replay_ns =
          obs::GetHistogram("store.replay_ns");
      replay_ns.Record(static_cast<uint64_t>(timer.Seconds() * 1e9));
    }
  } replay_obs;

  // A writer without a live lease never appends again: its files are
  // final, so their tails are settled now.
  std::set<std::string> live;
  for (const lease::LeaseInfo& info : lease::ListLeases(dir_)) {
    if (info.writer != writer_id_ && !PidProvablyDead(info.pid)) {
      live.insert(info.writer);
    }
  }
  // The base (compaction output) holds the oldest records; segments
  // follow in acquisition order.
  ReplayFile(BasePath(), /*settle=*/true);
  for (const Segment& seg : ListSegments(dir_)) {
    next_segment_ = std::max(next_segment_, seg.seq + 1);
    ReplayFile(seg.path, /*settle=*/!live.contains(seg.writer));
  }
}

void ResultStore::ReplayFile(const std::string& file, bool settle) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return;
  const std::string content = ReadWholeFile(in);
  in.close();
  LogFile& state = files_[file];
  state.closed = settle;
  AbsorbLines(file, state, content, /*strict=*/true, settle);
  if (!settle || options_.read_only) return;
  // Leave a gone writer's file in whole-line form, or remove it when no
  // record survives. Failures are harmless: the next open decides the
  // same way.
  std::error_code ec;
  if (state.line_no <= 1) {
    fs::remove(file, ec);
  } else if (state.consumed < content.size()) {
    fs::resize_file(file, state.consumed, ec);
  } else if (content.back() != '\n') {
    std::ofstream(file, std::ios::binary | std::ios::app) << '\n';
  }
}

size_t ResultStore::AbsorbLines(const std::string& file, LogFile& state,
                                const std::string& view, bool strict,
                                bool settle) {
  static obs::Counter& poisoned_files =
      obs::GetCounter("store.poisoned_peer_files");
  size_t absorbed = 0;
  size_t pos = 0;  // offset into `view`, i.e. file offset - state.consumed
  while (pos < view.size()) {
    const size_t nl = view.find('\n', pos);
    const bool terminated = nl != std::string::npos;
    if (!terminated && !settle) break;  // partial line: writer mid-append
    const size_t end = terminated ? nl : view.size();
    const std::string line = view.substr(pos, end - pos);
    const char* bad = nullptr;  // what is wrong with the line, if anything
    if (state.line_no == 0) {
      if (!ParseHeader(line)) bad = "bad header (not a result-store log)";
    } else {
      StoredCell cell;
      StoredClaim claim;
      const LineKind kind = ParseLine(line, &cell, &claim);
      if (kind == LineKind::kBad) {
        bad = "corrupt record";
      } else if (!CrcOk(line)) {
        bad = "checksum mismatch";
      } else {
        if (kind == LineKind::kClaim) {
          claims_.push_back(std::move(claim));
        } else {
          InsertLocked(std::move(cell), /*from_file=*/true);
          ++absorbed;
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
      // rot. At open it is fatal — skipping it would fabricate results.
      // Mid-run the sweep must survive a peer's bit rot: the file is
      // poisoned, what it already gave stays, the rest is recomputed if
      // the scheduler needs it.
      if (strict) {
        throw StoreCorruptError("result store: " + std::string(bad) +
                                " at line " +
                                std::to_string(state.line_no + 1) + " of " +
                                file);
      }
      state.closed = true;
      poisoned_files.Add();
      return absorbed;
    }
    ++state.line_no;
    state.consumed += end - pos + (terminated ? 1 : 0);
    pos = end + 1;
  }
  return absorbed;
}

size_t ResultStore::RefreshPeers() {
  std::lock_guard<std::mutex> lock(mu_);
  return RefreshPeersLocked();
}

size_t ResultStore::RefreshPeersLocked() {
  static obs::Counter& refreshed =
      obs::GetCounter("store.peer_refresh_records");
  // The base never grows while this store is open: only a sole writer
  // rewrites it.
  size_t absorbed = 0;
  for (const Segment& seg : ListSegments(dir_)) {
    if (seg.writer == writer_id_) continue;
    LogFile& state = files_[seg.path];
    if (state.closed) continue;
    std::ifstream in(seg.path, std::ios::binary);
    if (!in) continue;
    in.seekg(static_cast<std::streamoff>(state.consumed));
    if (!in) continue;
    const std::string tail = ReadWholeFile(in);
    if (tail.empty()) continue;
    absorbed += AbsorbLines(seg.path, state, tail, /*strict=*/false,
                            /*settle=*/false);
  }
  refreshed.Add(absorbed);
  return absorbed;
}

bool ResultStore::WriterAlive(const std::string& writer) const {
  if (!writer_id_.empty() && writer == writer_id_) return true;
  for (const lease::LeaseInfo& info : lease::ListLeases(dir_)) {
    if (info.writer != writer) continue;
    std::lock_guard<std::mutex> lock(mu_);
    return prober_.Alive(info);
  }
  return false;  // no lease file: released on clean exit, or reaped
}

size_t ResultStore::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

size_t ResultStore::ErrorCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_cells_;
}

bool ResultStore::Contains(const CellKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.contains(key.Canonical());
}

std::optional<StoredCell> ResultStore::Lookup(const CellKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key.Canonical());
  if (it == index_.end()) return std::nullopt;
  return cells_[it->second];
}

std::vector<StoredCell> ResultStore::Cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_;
}

std::vector<StoredClaim> ResultStore::Claims() const {
  std::lock_guard<std::mutex> lock(mu_);
  return claims_;
}

void ResultStore::InsertLocked(StoredCell cell, bool from_file) {
  std::string canonical = cell.key.Canonical();
  auto it = index_.find(canonical);
  if (it != index_.end()) {
    StoredCell& slot = cells_[it->second];
    // A replayed error never shadows a completed result: equal keys carry
    // bit-identical values across writers, so any success IS the value;
    // the error just means some attempt failed.
    if (from_file && cell.is_error && !slot.is_error) return;
    if (slot.is_error && !cell.is_error) --error_cells_;
    if (!slot.is_error && cell.is_error) ++error_cells_;
    slot = std::move(cell);  // last write wins, keeps position
  } else {
    if (cell.is_error) ++error_cells_;
    index_.emplace(std::move(canonical), cells_.size());
    cells_.push_back(std::move(cell));
  }
}

void ResultStore::OpenSegmentLocked() {
  static obs::Counter& rotations =
      obs::GetCounter("store.segment_rotations");
  if (out_.is_open()) {
    SPARSIFY_FAILPOINT("store.rotate");
    CloseWriterLocked();
    rotations.Add();
  }
  char seq[24];
  std::snprintf(seq, sizeof(seq), "%06llu",
                static_cast<unsigned long long>(next_segment_++));
  append_path_ = (fs::path(dir_) /
                  ("log." + writer_id_ + "." + seq + ".jsonl"))
                     .string();
  out_.open(append_path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw IoError("result store: cannot open " + append_path_ +
                  " for append");
  }
  const std::string header = SerializeHeader();
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

void ResultStore::AppendLocked(StoredCell cell) {
  AppendRecordLocked(SerializeRecord(cell));
  InsertLocked(std::move(cell), /*from_file=*/false);
}

void ResultStore::Append(const CellKey& key, double achieved_prune_rate,
                         double value) {
  // Append latency includes the lock wait: contention from many workers
  // appending at once shows up here, which is what the histogram is for.
  static obs::Counter& appends = obs::GetCounter("store.appends");
  static obs::Histogram& append_ns = obs::GetHistogram("store.append_ns");
  Timer append_timer;
  std::lock_guard<std::mutex> lock(mu_);
  StoredCell cell;
  cell.key = key;
  cell.achieved_prune_rate = achieved_prune_rate;
  cell.value = value;
  AppendLocked(std::move(cell));
  appends.Add();
  append_ns.Record(static_cast<uint64_t>(append_timer.Seconds() * 1e9));
}

void ResultStore::AppendError(const CellKey& key,
                              const std::string& error_class,
                              const std::string& error_message,
                              int attempts) {
  static obs::Counter& errors = obs::GetCounter("store.error_appends");
  std::lock_guard<std::mutex> lock(mu_);
  StoredCell cell;
  cell.key = key;
  cell.is_error = true;
  cell.error_class = error_class;
  cell.error_message = error_message;
  cell.attempts = attempts;
  AppendLocked(std::move(cell));
  errors.Add();
}

void ResultStore::AppendClaim(const std::string& scope, uint64_t chunk) {
  static obs::Counter& claims = obs::GetCounter("store.claim_appends");
  std::lock_guard<std::mutex> lock(mu_);
  StoredClaim claim;
  claim.writer = writer_id_;
  claim.scope = scope;
  claim.chunk = chunk;
  AppendRecordLocked(SerializeClaim(claim));
  claims_.push_back(std::move(claim));
  claims.Add();
}

void ResultStore::RewriteLogLocked(const std::vector<StoredCell>& cells,
                                   const std::string& tmp,
                                   const char* fp_write,
                                   const char* fp_rename) {
  // Write the replacement log beside the original, then rename over it.
  // A crash before the rename leaves the old log plus an orphan temp
  // (cleaned on next open, under the lease-dir flock); a crash after
  // the rename but before the segment unlinks replays to the same
  // contents (the folded records shadow the segments). Either way the
  // store opens clean.
  SPARSIFY_FAILPOINT(fp_write);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw IoError("result store: cannot open " + tmp + " for rewrite");
    }
    out << SerializeHeader();
    for (const StoredCell& cell : cells) {
      out << SerializeRecord(cell);
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
  // The folded segments are garbage now; every writer is dead (sole-
  // writer precondition) except us, and ours were folded too.
  for (const Segment& seg : ListSegments(dir_)) {
    std::error_code ec;
    fs::remove(seg.path, ec);
  }
  log_records_ = cells.size();
  claims_.clear();
  files_.clear();
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
  // The whole commit happens under the lease-dir flock: acquisition of a
  // new writer serializes against the sole-writer check AND the rewrite,
  // so a worker can neither slip in mid-rewrite nor replay a half-
  // committed view.
  lease::LeaseDirLock dir_lock(dir_);
  RequireSoleWriter("compact");
  // Every peer is gone: fold in what they appended since we last looked,
  // or the rewrite would delete it with their segments.
  RefreshPeersLocked();
  CompactStats stats;
  stats.records_before = log_records_;
  stats.records_after = cells_.size();
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
  RewriteLogLocked(cells_, BasePath() + ".compact.tmp." +
                               std::to_string(OwnPid()),
                   "store.compact.write", "store.compact.rename");
  {
    std::error_code ec;
    const auto size = fs::file_size(BasePath(), ec);
    if (!ec) stats.bytes_after = size;
  }

  static obs::Counter& compactions = obs::GetCounter("store.compactions");
  compactions.Add();
  return stats;
}

void ResultStore::ReplaceWithMerged(std::vector<StoredCell> cells) {
  TRACE_SPAN(span, "store_merge_commit");
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.read_only) {
    throw IoError("result store: " + dir_ +
                  " was opened read-only (snapshot)");
  }
  lease::LeaseDirLock dir_lock(dir_);
  RequireSoleWriter("merge");
  CloseWriterLocked();

  // Swap in the merged view first so the rewrite and the in-memory index
  // can never disagree.
  cells_ = std::move(cells);
  index_.clear();
  error_cells_ = 0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    index_.emplace(cells_[i].key.Canonical(), i);
    if (cells_[i].is_error) ++error_cells_;
  }
  RewriteLogLocked(cells_,
                   BasePath() + ".merge.tmp." + std::to_string(OwnPid()),
                   "store.merge.write", "store.merge.rename");

  static obs::Counter& merges = obs::GetCounter("store.merge_commits");
  merges.Add();
}

FsyncPolicy ResultStore::fsync_policy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsync_policy_;
}

}  // namespace sparsify
