#include "util/threadpool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace tpcds {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

namespace {

/// State of one ParallelFor call, shared with its helper tasks. It
/// outlives the call when a helper starts late; `fn` is only dereferenced
/// for a claimed unit below `count`, and the call does not return until
/// every such unit has finished.
struct ParallelForCall {
  ParallelForCall(size_t n, const std::function<void(size_t)>* f)
      : count(n), fn(f) {}

  /// Claims and runs units until none is left.
  void Drain() {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      (*fn)(i);
      // The last unit takes the mutex before notifying, so a caller
      // between its predicate check and its wait cannot miss the signal.
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
        std::lock_guard<std::mutex> lock(mu);
        finished.notify_all();
      }
    }
  }

  const size_t count;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable finished;
};

}  // namespace

void ThreadPool::ParallelFor(size_t count, size_t max_helpers,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  auto call = std::make_shared<ParallelForCall>(count, &fn);
  size_t helpers = std::min({max_helpers, workers_.size(), count - 1});
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t t = 0; t < helpers; ++t) {
        queue_.push_back([call] { call->Drain(); });
      }
    }
    for (size_t t = 0; t < helpers; ++t) task_ready_.notify_one();
  }
  call->Drain();
  std::unique_lock<std::mutex> lock(call->mu);
  call->finished.wait(lock, [&call] {
    return call->done.load(std::memory_order_acquire) == call->count;
  });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& SharedExecutorPool() {
  // Never destroyed: a statement still running on another thread during
  // static destruction at exit must not find its pool joined under it.
  static ThreadPool* pool =
      new ThreadPool(std::max(1u, std::thread::hardware_concurrency()));
  return *pool;
}

namespace {
std::atomic<bool> heap_freed{false};
}  // namespace

void NoteHeapFreed() { heap_freed.store(true, std::memory_order_relaxed); }

void ReleaseFreedHeap() {
  if (!heap_freed.exchange(false, std::memory_order_relaxed)) return;
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

}  // namespace tpcds
