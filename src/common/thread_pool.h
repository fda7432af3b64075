#ifndef PATCHINDEX_COMMON_THREAD_POOL_H_
#define PATCHINDEX_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace patchindex {

/// Upper bound a PI_THREADS override is accepted up to — far above any
/// real machine, low enough that a typo ("10000" for "1000") cannot
/// spawn an absurd number of workers.
inline constexpr std::size_t kMaxThreadsEnv = 1024;

/// Parses a PI_THREADS-style value: decimal digits only, 1..kMaxThreadsEnv.
/// Returns nullopt on anything else (empty, trailing junk, zero, too
/// large) — callers fall back to the hardware concurrency and warn.
std::optional<std::size_t> ParseThreadCountEnv(const char* value);

/// The default worker-pool size: the PI_THREADS environment variable
/// when set and valid (an invalid value warns once on stderr and is
/// ignored), the hardware concurrency otherwise. Lets deployments and CI
/// size ThreadPool::Default() and every default-sized Engine without
/// recompiling.
std::size_t DefaultThreadCount();

/// A fixed-size worker pool: the query executor's workers, partition-
/// parallel index creation and commits, and the sharded bitmap's parallel
/// bulk delete, all through ParallelFor. Tasks are plain
/// std::function<void()>; WaitIdle() waits for every task of the pool.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have finished executing.
  void WaitIdle();

  /// Enqueues a task and returns a future that resolves when it finishes
  /// (rethrowing any exception). Unlike WaitIdle() — a pool-wide barrier —
  /// this lets a caller await only its own tasks, which is what the query
  /// engine needs when several pipelines share one pool: waiting for the
  /// whole pool to drain would serialize unrelated concurrent queries.
  std::future<void> SubmitWithFuture(std::function<void()> task) {
    auto packaged = std::make_shared<std::packaged_task<void()>>(
        std::move(task));
    std::future<void> future = packaged->get_future();
    Submit([packaged] { (*packaged)(); });
    return future;
  }

  /// Runs fn(i) for i in [0, n), distributing iterations over workers in
  /// contiguous chunks, and blocks until all of them are done. Awaits only
  /// its own chunks (not WaitIdle), so callers sharing the pool do not wait
  /// for each other's tasks; a single chunk (n == 1, or a one-thread pool)
  /// runs inline on the calling thread. A
  /// throwing fn ends its chunk; the first failure is rethrown once every
  /// chunk has finished. Must not be called from a task of this pool.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t num_threads() const { return workers_.size(); }

  /// Installs (or, with nullptr, removes) a wait-event observer invoked
  /// with the nanoseconds each task sat queued before a worker picked it
  /// up — the engine routes it into the pidx_wait_pool_queue_us
  /// histogram. With no observer installed, Submit does not even read
  /// the clock. The observer runs on worker threads and must be
  /// thread-safe; install before the pool is shared.
  void SetQueueWaitRecorder(std::function<void(std::uint64_t wait_ns)> fn);

  /// Process-wide pool sized by DefaultThreadCount() — the hardware
  /// concurrency, or the PI_THREADS environment variable when set. The
  /// size is fixed at first use; changing PI_THREADS later has no
  /// effect on an already-created pool.
  static ThreadPool& Default();

 private:
  struct QueuedTask {
    std::function<void()> fn;
    /// Enqueue time; only read when a wait recorder is installed.
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::atomic<bool> has_wait_recorder_{false};
  std::function<void(std::uint64_t)> wait_recorder_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace patchindex

#endif  // PATCHINDEX_COMMON_THREAD_POOL_H_
