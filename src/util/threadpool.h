#ifndef TPCDS_UTIL_THREADPOOL_H_
#define TPCDS_UTIL_THREADPOOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tpcds {

/// Fixed-size worker pool. Work runs through ParallelFor: the data
/// generator owns a pool for chunk-parallel table generation, and every
/// query's morsel-parallel operators share the process-wide
/// SharedExecutorPool().
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; tasks may run in any order across workers. The
  /// destructor runs every queued task before it joins the workers.
  void Submit(std::function<void()> task);

  /// Runs fn(i) for every i in [0, count) on the calling thread plus up to
  /// `max_helpers` pool workers, and returns once every unit has run. The
  /// call keeps its own completion count: units are claimed from a
  /// per-call counter, the caller keeps claiming until none is left, and
  /// then waits only for units that started workers are running — never
  /// for a helper that has not started. So the call completes even when
  /// every worker is busy with other callers' units, and when it is issued
  /// from inside a pool task. A helper that starts after the call returned
  /// finds no unit left and leaves without touching `fn`.
  void ParallelFor(size_t count, size_t max_helpers,
                   const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
};

/// The pool every query's intra-query parallelism runs on: created on
/// first use with one worker per hardware core and kept for the life of
/// the process, so no statement creates or joins a thread. Concurrent
/// statements share its workers.
ThreadPool& SharedExecutorPool();

/// Marks that a large block of heap was freed (a torn-down table store).
/// Code on one thread reuses such memory from the allocator's main arena,
/// but pool workers allocate from arenas of their own on top of it, so it
/// would stay resident under them. The next ReleaseFreedHeap() call hands
/// it back to the OS. The release is deferred, not done at the free, so
/// that a serial phase that frees and reallocates (a repeated data load)
/// keeps reusing its pages instead of faulting fresh ones in.
void NoteHeapFreed();

/// If NoteHeapFreed() was called since the last release, returns the
/// allocator's free memory to the OS (malloc_trim under glibc; a no-op
/// elsewhere). Statements call it before they start parallel work; with
/// no free pending it costs one atomic exchange.
void ReleaseFreedHeap();

}  // namespace tpcds

#endif  // TPCDS_UTIL_THREADPOOL_H_
