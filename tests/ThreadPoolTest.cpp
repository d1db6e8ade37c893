//===- tests/ThreadPoolTest.cpp - FIFO worker pool ------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for support/ThreadPool, the usher-serve daemon's worker
/// queue: every task runs, the thread count is clamped, and destruction
/// drains tasks still queued.
///
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace usher;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool basics
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTask) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(4);
    EXPECT_EQ(Pool.numThreads(), 4u);
    for (int I = 0; I != 100; ++I)
      Pool.async([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, ThreadCountIsClamped) {
  ThreadPool Tiny(0);
  EXPECT_EQ(Tiny.numThreads(), 1u);
  ThreadPool Huge(1000);
  EXPECT_EQ(Huge.numThreads(), 64u);
}

TEST(ThreadPool, CleanShutdownDrainsQueuedTasks) {
  // Destroying the pool with tasks still queued must run them all, not
  // drop them: destruction is a drain + join, not a cancel.
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 200; ++I)
      Pool.async([&Ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        Ran.fetch_add(1, std::memory_order_relaxed);
      });
    // Fall out of scope immediately: most tasks are still queued.
  }
  EXPECT_EQ(Ran.load(), 200);
}

} // namespace
