#include "src/util/failpoint.h"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/util/cancel.h"

namespace sparsify::fail {

namespace {

// SplitMix64: the library's dependency-free seed mixer (same finalizer
// the engine uses for its seed derivations, but over a PRIVATE per-site
// state — failpoints must never consume engine RNG).
uint64_t SplitMix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct SiteState {
  Policy policy;
  uint64_t hits = 0;
  uint64_t fired = 0;
  uint64_t rng_state = 0;  // probability stream: SplitMix64 counter mode
};

struct Registry {
  std::mutex mu;
  std::map<std::string, SiteState> sites;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();
  return *r;
}

// Decision computed under the registry lock; the action (sleep, throw,
// abort) runs outside it so a delaying or throwing site never wedges
// other sites.
struct Decision {
  bool fire = false;
  Action action = Action::kThrow;
  uint64_t delay_ms = 0;
  std::string site;  // the name that matched (for the error message)
};

Decision DecideLocked(const std::string& name, SiteState& state) {
  Decision d;
  ++state.hits;
  const Policy& p = state.policy;
  if (p.nth > 0) {
    d.fire = state.hits == p.nth;
  } else if (p.probability >= 0.0) {
    state.rng_state = SplitMix(state.rng_state + 0x9e3779b97f4a7c15ULL);
    // 53-bit uniform in [0,1), the standard double construction.
    double u = static_cast<double>(state.rng_state >> 11) * 0x1.0p-53;
    d.fire = u < p.probability;
  } else {
    d.fire = true;
  }
  if (d.fire) {
    ++state.fired;
    d.action = p.action;
    d.delay_ms = p.delay_ms;
    d.site = name;
  }
  return d;
}

[[noreturn]] void ThrowInjected(const Decision& d, bool transient) {
  std::string what = "injected fault at failpoint '" + d.site + "'";
  if (transient) throw TransientError(what + " (transient)");
  throw InjectedFault(what);
}

void Act(const Decision& d) {
  switch (d.action) {
    case Action::kThrow:
      ThrowInjected(d, /*transient=*/false);
    case Action::kThrowTransient:
      ThrowInjected(d, /*transient=*/true);
    case Action::kAbort:
      std::abort();
    case Action::kKill:
#if defined(__unix__) || defined(__APPLE__)
      std::raise(SIGKILL);
      std::abort();  // unreachable; SIGKILL cannot be handled
#else
      std::abort();  // closest crash off-POSIX
#endif
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(d.delay_ms));
      return;
    case Action::kHang:
      // Block until the ambient cancel token trips (the cancellation
      // then propagates as its typed exception — exactly what a wedged
      // stage looks like when its stage timeout fires) or every
      // failpoint is disarmed (then continue as if nothing happened).
      while (internal::AnyArmed()) {
        const CancelToken* token = CurrentCancelToken();
        if (token != nullptr) token->ThrowIfCancelled();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return;
  }
}

Policy ParsePolicy(const std::string& spec_entry, const std::string& text) {
  // text = action[@trigger]; spec_entry only for error messages.
  Policy policy;
  std::string action = text;
  std::string trigger;
  size_t at = text.find('@');
  if (at != std::string::npos) {
    action = text.substr(0, at);
    trigger = text.substr(at + 1);
    if (trigger.empty()) {
      throw std::invalid_argument("failpoint spec: empty trigger in '" +
                                  spec_entry + "'");
    }
  }
  if (action == "throw") {
    policy.action = Action::kThrow;
  } else if (action == "throw-transient") {
    policy.action = Action::kThrowTransient;
  } else if (action == "abort") {
    policy.action = Action::kAbort;
  } else if (action == "kill") {
    policy.action = Action::kKill;
  } else if (action == "hang") {
    policy.action = Action::kHang;
  } else if (action.rfind("delay:", 0) == 0) {
    policy.action = Action::kDelay;
    char* end = nullptr;
    const std::string ms = action.substr(6);
    policy.delay_ms = std::strtoull(ms.c_str(), &end, 10);
    if (ms.empty() || end != ms.c_str() + ms.size()) {
      throw std::invalid_argument("failpoint spec: bad delay in '" +
                                  spec_entry + "'");
    }
  } else {
    throw std::invalid_argument("failpoint spec: unknown action in '" +
                                spec_entry + "'");
  }
  if (!trigger.empty()) {
    if (trigger[0] == 'p') {
      std::string prob = trigger.substr(1);
      size_t slash = prob.find('/');
      if (slash != std::string::npos) {
        const std::string seed = prob.substr(slash + 1);
        char* end = nullptr;
        policy.seed = std::strtoull(seed.c_str(), &end, 10);
        if (seed.empty() || end != seed.c_str() + seed.size()) {
          throw std::invalid_argument("failpoint spec: bad seed in '" +
                                      spec_entry + "'");
        }
        prob = prob.substr(0, slash);
      }
      char* end = nullptr;
      policy.probability = std::strtod(prob.c_str(), &end);
      if (prob.empty() || end != prob.c_str() + prob.size() ||
          policy.probability < 0.0 || policy.probability > 1.0) {
        throw std::invalid_argument("failpoint spec: bad probability in '" +
                                    spec_entry + "'");
      }
    } else {
      char* end = nullptr;
      policy.nth = std::strtoull(trigger.c_str(), &end, 10);
      if (end != trigger.c_str() + trigger.size() || policy.nth == 0) {
        throw std::invalid_argument("failpoint spec: bad trigger in '" +
                                    spec_entry + "'");
      }
    }
  }
  return policy;
}

}  // namespace

namespace internal {

std::atomic<int> g_armed{0};

void Evaluate(const char* site, const char* scope) {
  Registry& reg = GetRegistry();
  Decision d;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    // Scoped name first ("engine.metric_unit/degree"), bare site second.
    if (scope != nullptr) {
      std::string scoped = std::string(site) + '/' + scope;
      auto it = reg.sites.find(scoped);
      if (it != reg.sites.end()) {
        d = DecideLocked(scoped, it->second);
        if (d.fire) {
          // Act outside the lock.
        } else {
          return;
        }
      }
    }
    if (!d.fire) {
      auto it = reg.sites.find(site);
      if (it == reg.sites.end()) return;
      d = DecideLocked(site, it->second);
      if (!d.fire) return;
    }
  }
  Act(d);
}

}  // namespace internal

void Arm(const std::string& site, const Policy& policy) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto [it, inserted] = reg.sites.try_emplace(site);
  it->second = SiteState{};
  it->second.policy = policy;
  it->second.rng_state = SplitMix(policy.seed ^ 0x6a09e667f3bcc909ULL);
  if (inserted) {
    internal::g_armed.fetch_add(1, std::memory_order_relaxed);
  }
}

void Disarm(const std::string& site) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (reg.sites.erase(site) > 0) {
    internal::g_armed.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisarmAll() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  internal::g_armed.fetch_sub(static_cast<int>(reg.sites.size()),
                              std::memory_order_relaxed);
  reg.sites.clear();
}

int ArmFromSpec(const std::string& spec) {
  int armed = 0;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    std::string entry = spec.substr(pos, semi - pos);
    pos = semi + 1;
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("failpoint spec: expected site=action in '" +
                                  entry + "'");
    }
    Arm(entry.substr(0, eq), ParsePolicy(entry, entry.substr(eq + 1)));
    ++armed;
  }
  return armed;
}

int ArmFromEnv() {
  const char* env = std::getenv("SPARSIFY_FAILPOINTS");
  if (env == nullptr || *env == '\0') return 0;
  return ArmFromSpec(env);
}

uint64_t HitCount(const std::string& site) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.hits;
}

uint64_t FiredCount(const std::string& site) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.fired;
}

}  // namespace sparsify::fail
