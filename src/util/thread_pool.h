#ifndef GOALREC_UTIL_THREAD_POOL_H_
#define GOALREC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/status.h"

// Fixed-size worker pool plus a blocking ParallelFor. The experiment runner
// evaluates thousands of user activities per recommender; runs are
// embarrassingly parallel across users. Both are exception-hardened: a
// throwing task never terminates the process or wedges the pool — the
// failure is recorded and surfaced as a Status (ThreadPool) or rethrown in
// the calling thread (ParallelFor).

namespace goalrec::util {

/// Fixed pool of worker threads executing submitted tasks FIFO.
/// Not copyable or movable. The destructor drains the queue and joins.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Enqueues a task. A task that throws does not kill its worker: the first
  /// exception is captured (see status()/RethrowIfFailed()) and later tasks
  /// keep running.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished (including failed ones).
  void Wait();

  /// OK while no task has thrown; otherwise kInternal carrying the first
  /// exception's message. Sticky until RethrowIfFailed() clears it.
  Status status() const;

  /// Number of tasks that threw since construction (or the last rethrow).
  size_t failed_tasks() const;

  /// Rethrows the first captured exception in the calling thread and resets
  /// the failure state; no-op when every task succeeded.
  void RethrowIfFailed();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_failure_;
  size_t failed_tasks_ = 0;
};

/// Runs body(i) for i in [0, n) on `num_threads` workers (0 = hardware
/// concurrency), the calling thread being one of them, each taking the next
/// unclaimed index until none is left,
/// so indices of uneven cost balance across the workers. Blocks until all
/// complete. `body` must be safe to invoke concurrently for distinct i. If
/// any invocation throws, every other index still runs and the first
/// exception is rethrown in the calling thread after the join.
void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                 size_t num_threads = 0);

}  // namespace goalrec::util

#endif  // GOALREC_UTIL_THREAD_POOL_H_
