#include "src/util/cancel.h"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/counters.h"
#include "src/util/errors.h"
#include "src/util/timer.h"

namespace sparsify {

void CancelToken::SetDeadlineAfter(double seconds) {
  SetDeadline(Timer::NowNanos() +
              static_cast<int64_t>(seconds * 1e9));
}

bool CancelToken::Cancelled() const {
  if (state_.load(std::memory_order_relaxed) != 0) return true;
  const int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != 0 && Timer::NowNanos() >= deadline) {
    // Latch so subsequent checks skip the clock read. If a concurrent
    // Cancel() won the race, its reason stands — first cause wins.
    uint8_t expected = 0;
    state_.compare_exchange_strong(
        expected, static_cast<uint8_t>(Reason::kDeadline),
        std::memory_order_relaxed);
    return true;
  }
  return parent_ != nullptr && parent_->Cancelled();
}

CancelToken::Reason CancelToken::EffectiveReason() const {
  const Reason own = reason();
  if (own != Reason::kNone) return own;
  return parent_ != nullptr ? parent_->EffectiveReason() : Reason::kNone;
}

void CancelToken::ThrowIfCancelled() const {
  if (!Cancelled()) return;
  if (EffectiveReason() == Reason::kDeadline) {
    throw DeadlineExceededError("deadline exceeded");
  }
  throw CancelledError("operation cancelled");
}

namespace cancel_internal {

std::atomic<int> g_armed{0};

namespace {
thread_local const CancelToken* g_current_token = nullptr;
}  // namespace

void CheckCurrent() {
  const CancelToken* token = g_current_token;
  if (token != nullptr) token->ThrowIfCancelled();
}

}  // namespace cancel_internal

const CancelToken* CurrentCancelToken() {
  return cancel_internal::g_current_token;
}

CancelScope::CancelScope(const CancelToken* token)
    : previous_(cancel_internal::g_current_token),
      armed_(token != nullptr) {
  if (!armed_) return;  // null scope: ambient token unchanged, no arming
  cancel_internal::g_current_token = token;
  cancel_internal::g_armed.fetch_add(1, std::memory_order_relaxed);
}

CancelScope::~CancelScope() {
  if (!armed_) return;
  cancel_internal::g_current_token = previous_;
  cancel_internal::g_armed.fetch_sub(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Activity registry
// ---------------------------------------------------------------------------

namespace {

// One slot per thread that has ever opened an ActivityScope. The slot's
// own mutex orders worker updates against watchdog sampling; critically,
// the watchdog cancels a stuck activity's token while holding the slot
// mutex, and the worker clears the slot (under the same mutex) before
// the token is destroyed, so the watchdog can never poke a dead token.
struct ActivitySlot {
  std::mutex mu;
  const char* stage = nullptr;  // null = idle
  std::string detail;
  const CancelToken* token = nullptr;
  int64_t start_ns = 0;
  // Watchdog bookkeeping: the start_ns it last dumped for, so each
  // stuck activity is reported once, not once per poll.
  int64_t dumped_start_ns = -1;
};

std::mutex g_registry_mu;
std::vector<ActivitySlot*>& Registry() {
  static std::vector<ActivitySlot*>* r = new std::vector<ActivitySlot*>();
  return *r;
}

ActivitySlot* LocalSlot() {
  thread_local ActivitySlot* slot = [] {
    auto* s = new ActivitySlot();  // leaked: watchdog may outlive thread
    std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(s);
    return s;
  }();
  return slot;
}

std::atomic<int64_t> g_dump_count{0};

}  // namespace

ActivityScope::ActivityScope(const char* stage, const std::string& detail,
                             const CancelToken* token) {
  ActivitySlot* slot = LocalSlot();
  slot_ = slot;
  std::lock_guard<std::mutex> lock(slot->mu);
  prev_stage_ = slot->stage;
  prev_detail_ = std::move(slot->detail);
  prev_token_ = slot->token;
  prev_start_ns_ = slot->start_ns;
  slot->stage = stage;
  slot->detail = detail;
  slot->token = token;
  slot->start_ns = Timer::NowNanos();
}

ActivityScope::~ActivityScope() {
  auto* slot = static_cast<ActivitySlot*>(slot_);
  std::lock_guard<std::mutex> lock(slot->mu);
  slot->stage = prev_stage_;
  slot->detail = std::move(prev_detail_);
  slot->token = prev_token_;
  slot->start_ns = prev_start_ns_;
}

std::vector<ActivitySnapshot> SnapshotActivities() {
  std::vector<ActivitySnapshot> out;
  const int64_t now = Timer::NowNanos();
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (ActivitySlot* slot : Registry()) {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->stage == nullptr) continue;
    ActivitySnapshot snap;
    snap.stage = slot->stage;
    snap.detail = slot->detail;
    snap.age_seconds = static_cast<double>(now - slot->start_ns) * 1e-9;
    snap.cancellable = slot->token != nullptr;
    out.push_back(std::move(snap));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

namespace {

struct WatchdogState {
  std::mutex mu;
  std::condition_variable cv;
  bool running = false;
  bool stop_requested = false;
  std::thread thread;
  WatchdogOptions options;
};

WatchdogState& Watchdog() {
  static WatchdogState* s = new WatchdogState();
  return *s;
}

void DumpStuck(const WatchdogOptions& options, const char* stage,
               const std::string& detail, double age_seconds) {
  std::FILE* out = stderr;
  std::fprintf(out,
               "# sparsify watchdog: no progress for %.1fs in %s/%s "
               "(stall threshold %.1fs)\n",
               age_seconds, stage, detail.c_str(), options.stall_seconds);
  std::fprintf(out, "# in-flight activities:\n");
  for (const ActivitySnapshot& a : SnapshotActivities()) {
    std::fprintf(out, "#   %-14s %-24s age=%.1fs%s\n", a.stage.c_str(),
                 a.detail.c_str(), a.age_seconds,
                 a.cancellable ? "" : " (no token)");
  }
  std::fprintf(out, "# obs counters:\n");
  for (const auto& [name, value] : obs::SnapshotCounters()) {
    std::fprintf(out, "#   %-40s %lld\n", name.c_str(),
                 static_cast<long long>(value));
  }
  for (const auto& [name, snap] : obs::SnapshotHistograms()) {
    std::fprintf(out, "#   %-40s count=%llu mean=%.3g max=%.3g\n",
                 name.c_str(), static_cast<unsigned long long>(snap.count),
                 snap.Mean(), static_cast<double>(snap.max));
  }
  std::fflush(out);
}

void WatchdogLoop(WatchdogOptions options) {
  double poll = options.poll_seconds;
  if (poll <= 0) {
    poll = options.stall_seconds / 4;
    if (poll < 0.05) poll = 0.05;
    if (poll > 5.0) poll = 5.0;
  }
  const auto poll_interval = std::chrono::duration<double>(poll);
  WatchdogState& state = Watchdog();
  const int64_t stall_ns =
      static_cast<int64_t>(options.stall_seconds * 1e9);

  std::unique_lock<std::mutex> wake_lock(state.mu);
  while (!state.stop_requested) {
    state.cv.wait_for(wake_lock, poll_interval);
    if (state.stop_requested) break;
    wake_lock.unlock();

    const int64_t now = Timer::NowNanos();
    // Snapshot the slot list, then inspect each under its own mutex.
    std::vector<ActivitySlot*> slots;
    {
      std::lock_guard<std::mutex> registry_lock(g_registry_mu);
      slots = Registry();
    }
    for (ActivitySlot* slot : slots) {
      const char* stage = nullptr;  // literal: outlives the lock
      std::string detail;
      double age_seconds = 0;
      int64_t start_ns = 0;
      {
        std::lock_guard<std::mutex> slot_lock(slot->mu);
        if (slot->stage == nullptr) continue;
        const int64_t age_ns = now - slot->start_ns;
        if (age_ns < stall_ns) continue;
        if (slot->dumped_start_ns == slot->start_ns) continue;  // reported
        slot->dumped_start_ns = slot->start_ns;
        stage = slot->stage;
        detail = slot->detail;
        age_seconds = static_cast<double>(age_ns) * 1e-9;
        start_ns = slot->start_ns;
      }
      // Dump OUTSIDE the slot lock: the dump snapshots every slot,
      // including this one (locking it again would self-deadlock).
      DumpStuck(options, stage, detail, age_seconds);
      g_dump_count.fetch_add(1, std::memory_order_relaxed);
      if (options.cancel_stuck) {
        std::lock_guard<std::mutex> slot_lock(slot->mu);
        // Re-check under the lock: the activity may have finished while
        // we dumped, and the token is only guaranteed alive while the
        // slot still points at the SAME activity (the owning thread
        // clears the slot, under this mutex, before destroying it).
        if (slot->start_ns == start_ns && slot->stage != nullptr &&
            slot->token != nullptr) {
          std::fprintf(stderr,
                       "# sparsify watchdog: cancelling stuck %s/%s\n",
                       slot->stage, slot->detail.c_str());
          std::fflush(stderr);
          slot->token->Cancel(CancelToken::Reason::kDeadline);
        }
      }
    }

    wake_lock.lock();
  }
}

}  // namespace

void StartWatchdog(const WatchdogOptions& options) {
  WatchdogState& state = Watchdog();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.running) return;
  state.running = true;
  state.stop_requested = false;
  state.options = options;
  state.thread = std::thread(WatchdogLoop, options);
}

void StopWatchdog() {
  WatchdogState& state = Watchdog();
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.running) return;
    state.stop_requested = true;
  }
  state.cv.notify_all();
  state.thread.join();
  std::lock_guard<std::mutex> lock(state.mu);
  state.running = false;
  state.stop_requested = false;
}

int64_t WatchdogDumpCount() {
  return g_dump_count.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

namespace {

std::atomic<CancelToken*> g_signal_token{nullptr};
std::atomic<bool> g_signal_seen{false};
volatile sig_atomic_t g_signal_signo = 0;
struct sigaction g_prev_sigint;
struct sigaction g_prev_sigterm;
bool g_handlers_installed = false;

extern "C" void SignalCancelHandler(int signo) {
  // Second signal: the user means it — abort immediately with the
  // conventional 128+sig code. _exit is async-signal-safe.
  if (g_signal_seen.exchange(true, std::memory_order_relaxed)) {
    ::_exit(128 + signo);
  }
  g_signal_signo = signo;
  CancelToken* token = g_signal_token.load(std::memory_order_relaxed);
  if (token != nullptr) token->Cancel(CancelToken::Reason::kCancelled);
  static const char kMsg[] =
      "\n# sparsify: signal received, draining in-flight units "
      "(signal again to abort)\n";
  // write(2) is async-signal-safe; the result is deliberately ignored.
  ssize_t ignored = ::write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  (void)ignored;
}

}  // namespace

void InstallSignalCancel(CancelToken* token) {
  g_signal_token.store(token, std::memory_order_relaxed);
  g_signal_seen.store(false, std::memory_order_relaxed);
  g_signal_signo = 0;
  struct sigaction action;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;  // store writes keep going; workers poll
  action.sa_handler = SignalCancelHandler;
  ::sigaction(SIGINT, &action, &g_prev_sigint);
  ::sigaction(SIGTERM, &action, &g_prev_sigterm);
  g_handlers_installed = true;
}

void ClearSignalCancel() {
  if (g_handlers_installed) {
    ::sigaction(SIGINT, &g_prev_sigint, nullptr);
    ::sigaction(SIGTERM, &g_prev_sigterm, nullptr);
    g_handlers_installed = false;
  }
  g_signal_token.store(nullptr, std::memory_order_relaxed);
}

int SignalCancelSigno() { return g_signal_signo; }

}  // namespace sparsify
