#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "src/obs/counters.h"
#include "src/util/cancel.h"
#include "src/util/failpoint.h"

namespace sparsify {
namespace {

// Queue-wait latency (enqueue -> dequeue) across every pool in the
// process. A growing tail here means submission outruns the workers.
obs::Histogram& QueueWaitHistogram() {
  static obs::Histogram& h = obs::GetHistogram("pool.queue_wait_ns");
  return h;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  worker_stats_ = std::make_unique<WorkerStat[]>(num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() { Stop(StopMode::kDrain); }

void ThreadPool::Stop(StopMode mode) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopped_) return;
    shutdown_ = true;
    if (mode == StopMode::kAbandon) {
      // Abandoned tasks count as "done" for Wait()'s bookkeeping: they
      // will never run, so nothing should block on them. abandon_ also
      // makes submissions from still-running tasks drop silently.
      abandon_ = true;
      const size_t dropped = queue_.size();
      queue_.clear();
      in_flight_ -= dropped;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
  std::unique_lock<std::mutex> lock(mu_);
  stopped_ = true;
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopped_) {
      throw std::logic_error("ThreadPool::Submit after Stop");
    }
    if (abandon_) return;  // dropped, like the rest of the queue
    queue_.push_back({std::move(task), Timer::Now()});
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::SubmitUrgent(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopped_) {
      throw std::logic_error("ThreadPool::SubmitUrgent after Stop");
    }
    if (abandon_) return;  // dropped, like the rest of the queue
    queue_.push_front({std::move(task), Timer::Now()});
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  WorkerStat& stat = worker_stats_[worker_index];
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to do
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    Timer::TimePoint start = Timer::Now();
    QueueWaitHistogram().Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(start -
                                                             task.enqueued)
            .count()));
    try {
      SPARSIFY_FAILPOINT("pool.task");
      task.fn();
    } catch (...) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    uint64_t busy_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Timer::Now() -
                                                             start)
            .count());
    stat.tasks.fetch_add(1, std::memory_order_relaxed);
    stat.busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats out;
  size_t n = workers_.size();
  out.worker_tasks.reserve(n);
  out.worker_busy_seconds.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t tasks = worker_stats_[i].tasks.load(std::memory_order_relaxed);
    uint64_t busy_ns =
        worker_stats_[i].busy_ns.load(std::memory_order_relaxed);
    out.tasks_executed += tasks;
    out.busy_seconds += static_cast<double>(busy_ns) * 1e-9;
    out.worker_tasks.push_back(tasks);
    out.worker_busy_seconds.push_back(static_cast<double>(busy_ns) * 1e-9);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    out.queue_high_water = queue_high_water_;
  }
  return out;
}

void ThreadPool::ResetStats() {
  for (size_t i = 0; i < workers_.size(); ++i) {
    worker_stats_[i].tasks.store(0, std::memory_order_relaxed);
    worker_stats_[i].busy_ns.store(0, std::memory_order_relaxed);
  }
  std::unique_lock<std::mutex> lock(mu_);
  queue_high_water_ = 0;
}

void NestedParallelFor(ThreadPool* pool, size_t n,
                       const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->NumThreads() < 2 || n < 2) {
    for (size_t i = 0; i < n; ++i) {
      SPARSIFY_CHECK_CANCELLED();
      fn(i);
    }
    return;
  }

  // Helpers run on pool threads that do not inherit this thread's
  // ambient cancel token; capture it here and re-install it in each
  // helper so every claimed index polls the same token.
  const CancelToken* cancel_token = CurrentCancelToken();

  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::condition_variable done;
    std::exception_ptr error;
    size_t n = 0;
  };
  auto state = std::make_shared<State>();
  state->n = n;

  // Every index is claimed and counted even after a failure (fn is just
  // skipped), so `completed` always reaches n and the caller's wait below
  // terminates unconditionally.
  auto claim_loop = [&fn](const std::shared_ptr<State>& s) {
    for (;;) {
      size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->n) return;
      if (!s->failed.load(std::memory_order_relaxed)) {
        try {
          SPARSIFY_CHECK_CANCELLED();
          fn(i);
        } catch (...) {
          if (!s->failed.exchange(true, std::memory_order_relaxed)) {
            std::lock_guard<std::mutex> lock(s->mu);
            s->error = std::current_exception();
          }
        }
      }
      if (s->completed.fetch_add(1, std::memory_order_acq_rel) + 1 == s->n) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->done.notify_all();
      }
    }
  };

  // Helpers jump the queue so the expensive task that spawned them is not
  // stalled behind ordinary work. `fn` lives on the caller's stack, which
  // outlives every claimed index: the caller blocks until completed == n,
  // and a helper starting afterwards exits before touching fn.
  size_t helpers =
      std::min(n, static_cast<size_t>(pool->NumThreads())) - 1;
  for (size_t h = 0; h < helpers; ++h) {
    pool->SubmitUrgent([state, claim_loop, cancel_token] {
      CancelScope cancel_scope(cancel_token);
      claim_loop(state);
    });
  }
  claim_loop(state);

  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&] {
    return state->completed.load(std::memory_order_acquire) == state->n;
  });
  if (state->error) std::rethrow_exception(state->error);
}

namespace {
thread_local ThreadPool* g_subtask_pool = nullptr;
}  // namespace

ThreadPool* CurrentSubtaskPool() { return g_subtask_pool; }

SubtaskPoolScope::SubtaskPoolScope(ThreadPool* pool)
    : previous_(g_subtask_pool) {
  g_subtask_pool = pool;
}

SubtaskPoolScope::~SubtaskPoolScope() { g_subtask_pool = previous_; }

}  // namespace sparsify
