#include "src/util/lease.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

#include "src/util/errors.h"
#include "src/util/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <unistd.h>
#define SPARSIFY_LEASE_HAS_POSIX 1
#endif

namespace sparsify::lease {

namespace fs = std::filesystem;

namespace {

long OwnPid() {
#ifdef SPARSIFY_LEASE_HAS_POSIX
  return static_cast<long>(::getpid());
#else
  return 0;
#endif
}

// Pulls the numeric value following `"key":` out of a one-line JSON
// lease. Good enough because WriteLease controls the exact shape.
bool FindNumber(const std::string& line, const std::string& key,
                double* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t p = line.find(needle);
  if (p == std::string::npos) return false;
  char* end = nullptr;
  const char* start = line.c_str() + p + needle.size();
  *out = std::strtod(start, &end);
  return end != start;
}

bool FindString(const std::string& line, const std::string& key,
                std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t p = line.find(needle);
  if (p == std::string::npos) return false;
  const size_t start = p + needle.size();
  const size_t close = line.find('"', start);
  if (close == std::string::npos) return false;
  *out = line.substr(start, close - start);
  return true;
}

}  // namespace

double TtlFromEnv(double fallback) {
  const char* env = std::getenv("SPARSIFY_LEASE_TTL");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || v <= 0) {
    throw std::invalid_argument(
        std::string("SPARSIFY_LEASE_TTL: expected seconds > 0, got '") +
        env + "'");
  }
  return v;
}

std::string NewWriterId() {
  // pid alone is not enough: a restarted worker may reuse its pid, and
  // one process can open several stores. The nonce disambiguates both.
  static std::atomic<uint64_t> counter{0};
  std::random_device rd;
  const uint64_t nonce =
      (static_cast<uint64_t>(rd()) << 16) ^ counter.fetch_add(1);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "w%ldx%016llx", OwnPid(),
                static_cast<unsigned long long>(nonce));
  return buf;
}

std::string LeasePathFor(const std::string& dir, const std::string& writer) {
  return (fs::path(dir) / ("lease." + writer + ".json")).string();
}

std::vector<LeaseInfo> ListLeases(const std::string& dir) {
  std::vector<LeaseInfo> leases;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("lease.", 0) != 0) continue;
    if (name.size() < 12 || name.compare(name.size() - 5, 5, ".json") != 0) {
      continue;
    }
    LeaseInfo info;
    info.writer = name.substr(6, name.size() - 11);
    info.path = entry.path().string();
    std::ifstream in(entry.path(), std::ios::binary);
    std::string line;
    if (in && std::getline(in, line)) {
      double pid = 0, heartbeat = 0, ttl = 0;
      std::string writer;
      if (FindString(line, "writer", &writer) && writer == info.writer &&
          FindNumber(line, "pid", &pid) &&
          FindNumber(line, "heartbeat", &heartbeat) &&
          FindNumber(line, "ttl", &ttl)) {
        info.pid = static_cast<long>(pid);
        info.heartbeat = static_cast<uint64_t>(heartbeat);
        info.ttl_seconds = ttl > 0 ? ttl : 30;
      }
      // A torn or mismatched lease file keeps pid 0: provably not live,
      // so the next acquirer reaps it.
    }
    leases.push_back(std::move(info));
  }
  return leases;
}

void WriteLease(const std::string& dir, const LeaseInfo& info) {
  SPARSIFY_FAILPOINT("store.lease.renew");
  const std::string path = LeasePathFor(dir, info.writer);
  const std::string tmp = path + ".tmp";
  std::ostringstream line;
  line << "{\"writer\":\"" << info.writer << "\",\"pid\":" << info.pid
       << ",\"heartbeat\":" << info.heartbeat << ",\"ttl\":";
  char ttl[32];
  std::snprintf(ttl, sizeof(ttl), "%.17g", info.ttl_seconds);
  line << ttl << "}\n";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("lease: cannot open " + tmp);
    out << line.str();
    out.flush();
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw IoError("lease: write failure on " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw IoError("lease: cannot rename " + tmp + " to " + path);
  }
}

void RemoveLease(const std::string& dir, const std::string& writer) {
  std::error_code ec;
  fs::remove(LeasePathFor(dir, writer), ec);
  fs::remove(LeasePathFor(dir, writer) + ".tmp", ec);
}

LeaseDirLock::LeaseDirLock(const std::string& dir) {
#ifdef SPARSIFY_LEASE_HAS_POSIX
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string lock_path = (fs::path(dir) / "leases.lock").string();
  fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw IoError("lease: cannot open lock file " + lock_path);
  }
  if (::flock(fd_, LOCK_EX) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw IoError("lease: flock failed on " + lock_path);
  }
#else
  (void)dir;
#endif
}

LeaseDirLock::~LeaseDirLock() {
#ifdef SPARSIFY_LEASE_HAS_POSIX
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
#endif
}

bool LivenessProber::Alive(const LeaseInfo& info) {
  if (info.pid <= 0) return false;  // torn/unreadable lease: not live
#ifdef SPARSIFY_LEASE_HAS_POSIX
  // Same-host fast path: a dead pid is stale immediately. ESRCH is the
  // only "definitely gone" answer; EPERM means alive-but-not-ours.
  if (::kill(static_cast<pid_t>(info.pid), 0) != 0 && errno == ESRCH) {
    return false;
  }
#endif
  // Wedged-process / foreign-host path: the counter must advance within
  // its TTL as measured on OUR steady clock. First sighting starts the
  // clock (optimistically alive).
  const auto now = std::chrono::steady_clock::now();
  auto [it, inserted] = seen_.try_emplace(info.writer);
  if (inserted || it->second.heartbeat != info.heartbeat) {
    it->second.heartbeat = info.heartbeat;
    it->second.changed_at = now;
    return true;
  }
  const double idle =
      std::chrono::duration<double>(now - it->second.changed_at).count();
  return idle <= info.ttl_seconds;
}

}  // namespace sparsify::lease
