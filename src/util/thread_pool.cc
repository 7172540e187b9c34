#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace goalrec::util {
namespace {

// Pool-wide instruments in the default registry. Several pools may coexist;
// they aggregate, which is what a fleet dashboard wants. Registered at load
// time so a scrape shows the gauge (at 0) before any task runs.
struct PoolMetrics {
  obs::Counter* submitted;
  obs::Counter* failed;
  obs::Gauge* queue_depth;
  obs::Histogram* task_latency_us;

  static const PoolMetrics& Get() {
    static const PoolMetrics metrics = [] {
      obs::MetricRegistry& registry = obs::MetricRegistry::Default();
      PoolMetrics m;
      m.submitted = registry.GetCounter(
          "goalrec_threadpool_tasks_total", {},
          "Tasks submitted to any ThreadPool");
      m.failed = registry.GetCounter(
          "goalrec_threadpool_task_failures_total", {},
          "ThreadPool tasks that terminated with an exception");
      m.queue_depth = registry.GetGauge(
          "goalrec_threadpool_queue_depth", {},
          "Tasks submitted but not yet picked up by a worker");
      m.task_latency_us = registry.GetHistogram(
          "goalrec_threadpool_task_latency_us",
          obs::DefaultLatencyBucketsUs(), {},
          "Per-task execution time in microseconds");
      return m;
    }();
    return metrics;
  }
};

const PoolMetrics& g_pool_metrics = PoolMetrics::Get();

std::string DescribeException(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "non-std::exception thrown";
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  size_t count = std::max<size_t>(1, num_threads);
  threads_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Carry the submitter's active trace into the worker so spans opened by
  // the task land in the same tree instead of silently detaching. The
  // submitter must keep the trace alive until the task completes — true for
  // the eval/reload callers, which Wait() before reading the trace.
  if (obs::Trace* trace = obs::CurrentTrace(); trace != nullptr) {
    task = [trace, inner = std::move(task)] {
      obs::ScopedTraceActivation activation(trace);
      inner();
    };
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    GOALREC_CHECK(!shutdown_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  g_pool_metrics.submitted->Increment();
  g_pool_metrics.queue_depth->Add(1);
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

Status ThreadPool::status() const {
  std::unique_lock<std::mutex> lock(mutex_);
  if (first_failure_ == nullptr) return Status::Ok();
  return InternalError(std::to_string(failed_tasks_) +
                       " task(s) threw; first: " +
                       DescribeException(first_failure_));
}

size_t ThreadPool::failed_tasks() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return failed_tasks_;
}

void ThreadPool::RethrowIfFailed() {
  std::exception_ptr failure;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    failure = first_failure_;
    first_failure_ = nullptr;
    failed_tasks_ = 0;
  }
  if (failure != nullptr) std::rethrow_exception(failure);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    g_pool_metrics.queue_depth->Sub(1);
    std::exception_ptr failure;
    auto task_start = std::chrono::steady_clock::now();
    try {
      task();
    } catch (...) {
      failure = std::current_exception();
    }
    g_pool_metrics.task_latency_us->Observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - task_start)
            .count());
    if (failure != nullptr) g_pool_metrics.failed->Increment();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (failure != nullptr) {
        ++failed_tasks_;
        if (first_failure_ == nullptr) first_failure_ = failure;
      }
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                 size_t num_threads) {
  if (n == 0) return;
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  size_t workers = num_threads == 0 ? hw : num_threads;
  workers = std::min(workers, n);
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::mutex failure_mutex;
  std::exception_ptr first_failure;
  // Indices go out one at a time from a shared counter, so a worker that
  // drew a few slow indices does not leave the others idle at the end.
  std::atomic<size_t> next{0};
  auto work = [n, &next, &body, &failure_mutex, &first_failure] {
    for (size_t i = next++; i < n; i = next++) {
      try {
        body(i);
      } catch (...) {
        std::unique_lock<std::mutex> lock(failure_mutex);
        if (first_failure == nullptr) first_failure = std::current_exception();
      }
    }
  };
  // Workers re-activate the caller's trace; the caller outlives them (it
  // joins below), so the raw pointer is safe.
  obs::Trace* trace = obs::CurrentTrace();
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    threads.emplace_back([&work, trace] {
      obs::ScopedTraceActivation activation(trace);
      work();
    });
  }
  // The calling thread is the first worker.
  work();
  for (std::thread& t : threads) t.join();
  if (first_failure != nullptr) std::rethrow_exception(first_failure);
}

}  // namespace goalrec::util
