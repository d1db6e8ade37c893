//===- tests/ThreadPoolTest.cpp - FIFO worker pool and Budget contention --===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for support/ThreadPool, the usher-serve daemon's worker
/// queue: every task runs, the thread count is clamped, and destruction
/// drains tasks still queued. Also the 8-thread Budget charging and
/// fault-injection contention regressions.
///
//===----------------------------------------------------------------------===//

#include "support/Budget.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

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

//===----------------------------------------------------------------------===//
// Thread-safe Budget charging (satellite regression)
//===----------------------------------------------------------------------===//

TEST(ThreadPool, BudgetChargesFromEightThreadsMatchSerialTotal) {
  // 8 threads x 10'000 single-step charges on an unlimited budget must
  // total exactly what one thread charging 80'000 would: charging is a
  // relaxed atomic sum, no charge may be lost or double-counted.
  BudgetLimits L;
  L.MaxStepsPerPhase = 1'000'000; // Armed, far above the total.
  Budget B(L);
  B.beginPhase(BudgetPhase::OptII);
  std::vector<std::thread> Threads;
  for (int T = 0; T != 8; ++T)
    Threads.emplace_back([&B] {
      for (int I = 0; I != 10'000; ++I)
        ASSERT_TRUE(B.step());
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(B.stepsUsed(), 80'000u);
  EXPECT_FALSE(B.exhausted());
}

TEST(ThreadPool, BudgetExhaustionUnderContentionIsDeterministic) {
  // When the limit sits inside the charged range, concurrent charging
  // must (a) always exhaust, (b) always report the same kind. Repeat to
  // give racing schedules a chance to disagree.
  for (int Round = 0; Round != 20; ++Round) {
    BudgetLimits L;
    L.MaxStepsPerPhase = 1'000;
    Budget B(L);
    B.beginPhase(BudgetPhase::OptII);
    std::vector<std::thread> Threads;
    for (int T = 0; T != 8; ++T)
      Threads.emplace_back([&B] {
        while (B.step()) {
        }
      });
    for (std::thread &T : Threads)
      T.join();
    ASSERT_TRUE(B.exhausted());
    ASSERT_EQ(B.exhaustKind(), ExhaustKind::Steps);
  }
}

TEST(ThreadPool, FaultFiresExactlyOnceUnderContention) {
  // An injected :once fault charged from 8 threads fires on exactly one
  // arm: the first. The second arm must run to its step limit instead.
  FaultPlan F;
  F.Phase = BudgetPhase::OptII;
  F.AtStep = 100;
  F.Once = true;
  BudgetLimits L;
  L.MaxStepsPerPhase = 100'000;
  Budget B(L, F);

  auto ChargeFromThreads = [&B] {
    std::vector<std::thread> Threads;
    for (int T = 0; T != 8; ++T)
      Threads.emplace_back([&B] {
        while (B.step()) {
        }
      });
    for (std::thread &T : Threads)
      T.join();
  };

  B.beginPhase(BudgetPhase::OptII);
  ChargeFromThreads();
  EXPECT_EQ(B.exhaustKind(), ExhaustKind::Injected);

  B.beginPhase(BudgetPhase::OptII);
  ChargeFromThreads();
  EXPECT_EQ(B.exhaustKind(), ExhaustKind::Steps);
}

} // namespace
