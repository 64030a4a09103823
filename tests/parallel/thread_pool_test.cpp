#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace hp::parallel {
namespace {

TEST(ThreadPoolTest, ZeroTasksReturnsImmediately) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(8);
  pool.parallel_for(8, [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, EveryIndexExecutesExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPoolTest, LowestFailingIndexWins) {
  // Indices 3 and 7 both throw; the batch must surface index 3's exception
  // no matter which worker reaches it first, and still run every index.
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::atomic<int> executed{0};
    try {
      pool.parallel_for(10, [&](std::size_t i) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i == 3) throw std::runtime_error("boom-3");
        if (i == 7) throw std::runtime_error("boom-7");
      });
      FAIL() << "expected parallel_for to rethrow (workers=" << workers << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom-3") << "workers=" << workers;
    }
    EXPECT_EQ(executed.load(), 10) << "workers=" << workers;
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPoolTest, StressManySmallBatches) {
  // Many short batches from the same pool: exercises the wakeup/drain path
  // that ThreadSanitizer cares about (see tests/README.md).
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(16, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 200L * (15 * 16 / 2));
}

}  // namespace
}  // namespace hp::parallel
