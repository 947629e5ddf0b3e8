// Fixed-size worker-thread pool with one parallel-for, NestedParallelFor.
//
// The pool is the only threading primitive in the library: everything
// parallel funnels through it so thread counts are controlled in one
// place. The batch engine schedules its stages with Submit/SubmitUrgent;
// metrics and the CSR build (Graph::FromEdges) fan independent indices
// out with NestedParallelFor, which works from inside a pool task and
// from any other thread. Determinism is the caller's job — work items
// must not depend on execution order (the batch engine derives every RNG
// stream from the task index, never from the worker).
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

namespace sparsify {

/// A fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// `num_threads` <= 0 selects std::thread::hardware_concurrency()
  /// (minimum 1).
  explicit ThreadPool(int num_threads = 0);

  /// Runs everything already queued, then joins every worker. Must not
  /// run on a pool task.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

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

  /// Seconds the workers spent running tasks since construction or the
  /// last ResetBusySeconds, summed across workers (two clock reads per
  /// task), so utilization over an interval is
  /// BusySeconds() / (wall x NumThreads()). Safe to call while tasks run.
  double BusySeconds() const;

  /// Zeroes the busy time, so a profile run measures only its own
  /// interval.
  void ResetBusySeconds();

 private:
  // Each worker's busy time lives on its own cache line so the hot path
  // (one relaxed add per task) never bounces lines between workers.
  struct alignas(64) WorkerBusy {
    std::atomic<uint64_t> ns{0};
  };

  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerBusy[]> worker_busy_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently executing
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

/// The library's parallel-for, safe to call from INSIDE a pool task (which
/// must never call Wait — that deadlocks the worker) and from outside the
/// pool alike. The calling thread claims indices from a shared cursor
/// alongside up to NumThreads()-1 helper tasks pushed to the front of the
/// queue; because indices are only ever
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
