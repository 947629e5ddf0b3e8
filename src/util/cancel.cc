#include "src/util/cancel.h"

#include <signal.h>
#include <unistd.h>

#include <limits>

#include "src/util/errors.h"
#include "src/util/timer.h"

namespace sparsify {

void CancelToken::SetDeadlineAfter(double seconds) {
  const int64_t now = Timer::NowNanos();
  const double budget_ns = seconds * 1e9;
  // A budget past the clock's range never expires; converting it would
  // overflow into a deadline that has already passed.
  const bool never = !(budget_ns < static_cast<double>(
                                       std::numeric_limits<int64_t>::max() -
                                       now));
  SetDeadline(never ? std::numeric_limits<int64_t>::max()
                    : now + static_cast<int64_t>(budget_ns));
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
