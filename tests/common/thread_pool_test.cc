#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace patchindex {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(),
                   [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIterations) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ParallelForAwaitsOnlyItsOwnTasks) {
  // An unrelated task holds one of the two threads until released:
  // ParallelFor must still return, since it waits for its own chunks, not
  // for the whole pool to go idle.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([released] { released.wait(); });
  std::atomic<int> hits{0};
  std::future<void> done = std::async(std::launch::async, [&pool, &hits] {
    pool.ParallelFor(4, [&hits](std::size_t) { hits.fetch_add(1); });
  });
  const bool returned = done.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  release.set_value();
  done.wait();
  pool.WaitIdle();
  EXPECT_TRUE(returned);
  EXPECT_EQ(hits.load(), 4);
}

TEST(ThreadPoolTest, ParallelForRethrowsOnceEveryChunkHasFinished) {
  // Rethrowing while other chunks still run would free the caller's state
  // under them.
  ThreadPool pool(4);
  std::vector<std::atomic<bool>> finished(4);
  EXPECT_THROW(pool.ParallelFor(4,
                                [&finished](std::size_t i) {
                                  if (i == 0) {
                                    throw std::runtime_error("chunk 0");
                                  }
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(20));
                                  finished[i] = true;
                                }),
               std::runtime_error);
  for (std::size_t i = 1; i < finished.size(); ++i) {
    EXPECT_TRUE(finished[i].load()) << "chunk " << i;
  }
}

TEST(ThreadPoolTest, ParallelForRunsASingleChunkInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> inline_calls{0};
  pool.ParallelFor(3, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) inline_calls.fetch_add(1);
  });
  EXPECT_EQ(inline_calls.load(), 3);
}

TEST(ThreadPoolTest, TasksCanBeSubmittedFromMultipleRounds) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 1; i <= 10; ++i) {
      pool.Submit([&sum, i] { sum.fetch_add(i); });
    }
    pool.WaitIdle();
  }
  EXPECT_EQ(sum.load(), 5 * 55);
}

TEST(ThreadPoolTest, DefaultPoolIsUsable) {
  std::atomic<int> x{0};
  ThreadPool::Default().Submit([&x] { x = 42; });
  ThreadPool::Default().WaitIdle();
  EXPECT_EQ(x.load(), 42);
}

TEST(ThreadPoolTest, ParseThreadCountEnvValidation) {
  // The PI_THREADS parser: decimal digits only, 1..kMaxThreadsEnv.
  // (ThreadPool::Default() itself is process-global and may already be
  // constructed by another test, so the validation logic is what's
  // testable here; DefaultThreadCount applies it to the env variable.)
  EXPECT_EQ(ParseThreadCountEnv("1"), std::size_t{1});
  EXPECT_EQ(ParseThreadCountEnv("8"), std::size_t{8});
  EXPECT_EQ(ParseThreadCountEnv("1024"), std::size_t{1024});
  EXPECT_EQ(ParseThreadCountEnv(nullptr), std::nullopt);
  EXPECT_EQ(ParseThreadCountEnv(""), std::nullopt);
  EXPECT_EQ(ParseThreadCountEnv("0"), std::nullopt);
  EXPECT_EQ(ParseThreadCountEnv("-4"), std::nullopt);
  EXPECT_EQ(ParseThreadCountEnv("4x"), std::nullopt);
  EXPECT_EQ(ParseThreadCountEnv(" 4"), std::nullopt);
  EXPECT_EQ(ParseThreadCountEnv("4.5"), std::nullopt);
  EXPECT_EQ(ParseThreadCountEnv("1025"), std::nullopt);       // > cap
  EXPECT_EQ(ParseThreadCountEnv("99999999999"), std::nullopt);  // overflow
}

}  // namespace
}  // namespace patchindex
