#include "common/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "common/check.h"

namespace patchindex {

std::optional<std::size_t> ParseThreadCountEnv(const char* value) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  std::size_t n = 0;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    n = n * 10 + static_cast<std::size_t>(*p - '0');
    if (n > kMaxThreadsEnv) return std::nullopt;
  }
  if (n == 0) return std::nullopt;
  return n;
}

std::size_t DefaultThreadCount() {
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const char* env = std::getenv("PI_THREADS");
  if (env == nullptr) return hardware;
  const std::optional<std::size_t> parsed = ParseThreadCountEnv(env);
  if (!parsed.has_value()) {
    // Warn once: DefaultThreadCount is called per pool, and repeating
    // the same complaint for every Engine would drown real output.
    static bool warned = [&] {
      std::fprintf(stderr,
                   "PI_THREADS: ignoring invalid value '%s' (want 1..%zu); "
                   "using hardware concurrency %zu\n",
                   env, kMaxThreadsEnv, hardware);
      return true;
    }();
    (void)warned;
    return hardware;
  }
  return *parsed;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  PIDX_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  QueuedTask queued{std::move(task), {}};
  if (has_wait_recorder_.load(std::memory_order_relaxed)) {
    queued.enqueued = std::chrono::steady_clock::now();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    PIDX_CHECK_MSG(!shutting_down_, "Submit after shutdown");
    queue_.push_back(std::move(queued));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::SetQueueWaitRecorder(
    std::function<void(std::uint64_t)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  wait_recorder_ = std::move(fn);
  has_wait_recorder_.store(wait_recorder_ != nullptr,
                           std::memory_order_relaxed);
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t chunks = std::min(n, num_threads());
  if (chunks == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t per_chunk = (n + chunks - 1) / chunks;
  // Failures are kept in caller-owned slots, not in the futures, so the
  // exception is created, read and released without a pool thread holding
  // the last reference to it.
  std::vector<std::exception_ptr> errors(chunks);
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * per_chunk;
    const std::size_t end = std::min(n, begin + per_chunk);
    if (begin >= end) break;
    futures.push_back(SubmitWithFuture([&fn, &errors, c, begin, end] {
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    }));
  }
  // Every chunk finishes before the first failure is rethrown: unwinding
  // while chunks still run would free the caller's state under them.
  for (std::future<void>& f : futures) f.get();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      if (wait_recorder_ != nullptr &&
          task.enqueued != std::chrono::steady_clock::time_point{}) {
        // Copy so the observer runs outside mu_ (it may take its own
        // histogram shard locks; holding the pool mutex through it would
        // serialize task pickup).
        const auto wait = std::chrono::steady_clock::now() - task.enqueued;
        const auto recorder = wait_recorder_;
        lock.unlock();
        recorder(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
                .count()));
      }
    }
    task.fn();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
  return *pool;
}

}  // namespace patchindex
