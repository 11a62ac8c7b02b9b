#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

namespace bsr {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelRangesPartitionIsExact) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_ranges(
      1237, [&](std::size_t b, std::size_t e) { total.fetch_add(e - b); });
  EXPECT_EQ(total.load(), 1237u);
}

TEST(ThreadPool, NestedCallsFallBackToSerial) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // Re-entrant use from a worker must not deadlock.
    pool.parallel_for(10, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 80);
}

// The concurrency contract, on a fixed-width pool so it is exercised on any
// host: every index runs exactly once, and a call returns only after all of
// its own indices have run — whoever else is using the pool meanwhile. The
// bodies sleep before counting so that a call returning early is caught with
// other participants still mid-chunk.

TEST(ThreadPool, NestedCallsFromTheCallerCompleteEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  for (int rep = 0; rep < 300; ++rep) {
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    pool.parallel_for(kOuter, [&](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      // Runs on the caller for some i: its nested call must not replace or
      // wait on the outer batch.
      pool.parallel_for(kInner, [&](std::size_t j) {
        hits[i * kInner + j].fetch_add(1);
      });
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "rep " << rep;
  }
}

TEST(ThreadPool, ConcurrentOutsideCallersEachCompleteTheirOwnBatch) {
  ThreadPool pool(3);
  constexpr std::size_t kCount = 64;
  constexpr int kReps = 300;
  const auto caller = [&pool](int& incomplete) {
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<std::atomic<int>> hits(kCount);
      pool.parallel_for(kCount, [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        hits[i].fetch_add(1);
      });
      for (const auto& h : hits) incomplete += h.load() == 1 ? 0 : 1;
    }
  };
  int incomplete_a = 0;
  int incomplete_b = 0;
  std::thread a(caller, std::ref(incomplete_a));
  std::thread b(caller, std::ref(incomplete_b));
  a.join();
  b.join();
  EXPECT_EQ(incomplete_a, 0);
  EXPECT_EQ(incomplete_b, 0);
}

TEST(ThreadPool, SumMatchesSerial) {
  ThreadPool pool(8);
  std::vector<long> values(100000);
  std::iota(values.begin(), values.end(), 0L);
  std::atomic<long> sum{0};
  pool.parallel_ranges(values.size(), [&](std::size_t b, std::size_t e) {
    long local = 0;
    for (std::size_t i = b; i < e; ++i) local += values[i];
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), std::accumulate(values.begin(), values.end(), 0L));
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

TEST(ThreadPool, ManySmallBatchesDoNotHang) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> n{0};
    pool.parallel_for(7, [&](std::size_t) { n.fetch_add(1); });
    ASSERT_EQ(n.load(), 7);
  }
}

}  // namespace
}  // namespace bsr
