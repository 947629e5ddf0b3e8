// Fixed-size worker-thread pool with a ParallelFor helper.
//
// The pool is the only threading primitive in the library: everything
// parallel (the batch sparsification engine, future metric parallelism)
// funnels through it so thread counts are controlled in one place.
// Determinism is the caller's job — work items must not depend on
// execution order (the batch engine derives every RNG stream from the
// task index, never from the worker).
#ifndef SPARSIFY_UTIL_THREAD_POOL_H_
#define SPARSIFY_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/timer.h"

namespace sparsify {

/// Always-on pool accounting (two clock reads per task — cheap against
/// any task worth submitting to a pool). busy_seconds is summed across
/// workers, so utilization over an interval is
/// busy_seconds / (wall x NumThreads()); idle is the complement.
struct ThreadPoolStats {
  uint64_t tasks_executed = 0;
  double busy_seconds = 0;
  size_t queue_high_water = 0;  // deepest the queue has been
  std::vector<uint64_t> worker_tasks;
  std::vector<double> worker_busy_seconds;
};

/// A fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// `num_threads` <= 0 selects std::thread::hardware_concurrency()
  /// (minimum 1).
  explicit ThreadPool(int num_threads = 0);

  /// Equivalent to Stop(StopMode::kDrain) if not already stopped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// How Stop treats tasks still sitting in the queue.
  enum class StopMode {
    kDrain,    // run everything already queued, then join
    kAbandon,  // drop queued tasks unrun; join after in-progress finish
  };

  /// Shuts the pool down and joins every worker. With kAbandon, tasks
  /// still queued are dropped (they never run — a cancelled sweep must
  /// not execute a backlog it no longer wants) and any Wait()er is
  /// released as if they had completed. In both modes, once Stop
  /// returns no task is running or will ever run; Submit afterwards
  /// throws std::logic_error. Idempotent; must not be called from a
  /// pool task.
  void Stop(StopMode mode);

  int NumThreads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task at the back of the queue. Tasks MAY submit further
  /// tasks (Wait's completion tracking counts queued + executing, and the
  /// submitter is still executing while it enqueues), but must never call
  /// Wait themselves — that deadlocks the worker.
  void Submit(std::function<void()> task);

  /// Enqueues a task at the FRONT of the queue: it runs before anything
  /// already queued. The batch engine uses this to drain a scored group's
  /// near-free mask tasks before further expensive scoring tasks start,
  /// which bounds how many groups' score states are alive at once.
  void SubmitUrgent(std::function<void()> task);

  /// Blocks until every submitted task has finished. If any task threw,
  /// rethrows the first exception (the rest are dropped).
  void Wait();

  /// Merged view of the per-worker counters plus the queue high-water
  /// mark. Safe to call concurrently with running tasks (values are a
  /// consistent-enough snapshot: relaxed per-worker atomics).
  ThreadPoolStats Stats() const;

  /// Zeroes the per-worker counters and the queue high-water mark, so a
  /// profile run measures only its own interval.
  void ResetStats();

 private:
  // Per-worker accounting lives on its own cache line so the hot path
  // (two relaxed stores per task) never bounces lines between workers.
  struct alignas(64) WorkerStat {
    std::atomic<uint64_t> tasks{0};
    std::atomic<uint64_t> busy_ns{0};
  };

  struct QueuedTask {
    std::function<void()> fn;
    Timer::TimePoint enqueued;  // for the pool.queue_wait_ns histogram
  };

  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerStat[]> worker_stats_;
  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<QueuedTask> queue_;
  size_t in_flight_ = 0;          // queued + currently executing
  size_t queue_high_water_ = 0;   // under mu_
  std::exception_ptr first_error_;
  bool shutdown_ = false;
  bool abandon_ = false;  // Stop(kAbandon): drop queued + new submissions
  bool stopped_ = false;  // Stop() ran to completion (workers joined)
};

/// Runs fn(i) for every i in [0, n) on `pool`, blocking until all complete.
/// Work is distributed dynamically (one shared atomic cursor), so uneven
/// per-index cost balances automatically. Exceptions from fn propagate,
/// and abort the loop early: once an index throws, workers stop pulling
/// new indices (remaining indices are skipped).
/// Concurrent ParallelFor calls on the same pool are not supported (Wait
/// tracks completion pool-globally); callers must serialize — see
/// BatchRunner::RunTasksMulti.
void ParallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t)>& fn);

/// Parallel-for that is safe to call from INSIDE a pool task (which must
/// never call Wait — that deadlocks the worker). The calling thread claims
/// indices from a shared cursor alongside up to NumThreads()-1 helper
/// tasks pushed to the front of the queue; because indices are only ever
/// claimed by running threads, by the time the caller's own claim loop
/// drains the cursor every remaining index is already executing on some
/// other worker, so the final wait never depends on a queued task and
/// cannot deadlock — even when every worker is nested-waiting at once.
/// Helper tasks that start late simply find the cursor exhausted and exit.
///
/// Determinism is the caller's job, exactly as for the batch engine: fn
/// must be pure per index (write disjoint slots, fold afterwards in index
/// order) so results do not depend on which thread claims which index.
/// `pool` may be null (or single-threaded, or n < 2): the loop runs
/// serially on the calling thread with identical results. The first
/// exception thrown by any index is rethrown on the caller; remaining
/// unclaimed indices are skipped.
void NestedParallelFor(ThreadPool* pool, size_t n,
                       const std::function<void(size_t)>& fn);

/// Ambient pool for intra-task fan-out. The batch engine points this at
/// its own pool for the duration of each metric evaluation, so sampled
/// metrics (BFS batches, Brandes pivots) can fan their independent
/// per-source work out as NestedParallelFor subtasks without threading a
/// pool through every metric signature. Null outside engine tasks — and
/// then NestedParallelFor degrades to the serial loop, bit-identically.
ThreadPool* CurrentSubtaskPool();

/// RAII setter for CurrentSubtaskPool (thread-local; restores the previous
/// value, so nested scopes compose).
class SubtaskPoolScope {
 public:
  explicit SubtaskPoolScope(ThreadPool* pool);
  ~SubtaskPoolScope();

  SubtaskPoolScope(const SubtaskPoolScope&) = delete;
  SubtaskPoolScope& operator=(const SubtaskPoolScope&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace sparsify

#endif  // SPARSIFY_UTIL_THREAD_POOL_H_
