#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "src/util/cancel.h"
#include "src/util/failpoint.h"
#include "src/util/timer.h"

namespace sparsify {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  worker_busy_ = std::make_unique<WorkerBusy[]>(num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::SubmitUrgent(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_front(std::move(task));
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
  std::atomic<uint64_t>& busy_ns = worker_busy_[worker_index].ns;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to do
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const int64_t start = Timer::NowNanos();
    try {
      SPARSIFY_FAILPOINT("pool.task");
      task();
    } catch (...) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    busy_ns.fetch_add(static_cast<uint64_t>(Timer::NowNanos() - start),
                      std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

double ThreadPool::BusySeconds() const {
  double seconds = 0;
  for (size_t i = 0; i < workers_.size(); ++i) {
    seconds += static_cast<double>(
                   worker_busy_[i].ns.load(std::memory_order_relaxed)) *
               1e-9;
  }
  return seconds;
}

void ThreadPool::ResetBusySeconds() {
  for (size_t i = 0; i < workers_.size(); ++i) {
    worker_busy_[i].ns.store(0, std::memory_order_relaxed);
  }
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
