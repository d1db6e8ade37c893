//===- tests/ThreadPoolTest.cpp - Work-stealing pool + ordered reduce ------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the support/ThreadPool machinery the deterministic
/// parallel engine rests on: work stealing under skewed task sizes,
/// exception propagation to the submitter, clean shutdown with tasks
/// still queued, and parallelMapOrdered's index-order guarantee under a
/// hostile (sleep-jittered) scheduler. Also the 8-thread Budget charging
/// regression.
///
//===----------------------------------------------------------------------===//

#include "support/Budget.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace usher;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool basics
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::atomic<int> Count{0};
  parallelForOrdered(&Pool, 100,
                     [&](size_t) { Count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, ThreadCountIsClamped) {
  ThreadPool Tiny(0);
  EXPECT_EQ(Tiny.numThreads(), 1u);
  EXPECT_GE(ThreadPool::defaultJobs(), 1u);
  EXPECT_LE(ThreadPool::defaultJobs(), 64u);
}

TEST(ThreadPool, StealsUnderSkewedTaskSizes) {
  // Round-robin distribution puts every long task on the same deques; a
  // worker that drains its own short tasks must steal the rest. With 4
  // workers and tasks where every 4th is slow, all slow tasks initially
  // land on worker 0's deque — zero steals would serialize them.
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  parallelForOrdered(&Pool, 64, [&](size_t I) {
    if (I % 4 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Count.load(), 64);
  // The submitting thread's caller-help runs are not counted, so every
  // observed steal is a genuine worker-to-worker migration.
  EXPECT_GT(Pool.stealCount(), 0u);
}

TEST(ThreadPool, ExceptionPropagatesToSubmitter) {
  ThreadPool Pool(4);
  std::atomic<int> Ran{0};
  try {
    parallelForOrdered(&Pool, 32, [&](size_t I) {
      Ran.fetch_add(1, std::memory_order_relaxed);
      if (I == 7)
        throw std::runtime_error("item seven failed");
    });
    FAIL() << "expected the worker exception to rethrow on the submitter";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "item seven failed");
  }
  // The region still completed: an exception marks its item, it does not
  // cancel the others.
  EXPECT_EQ(Ran.load(), 32);
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  // Multiple failing items must rethrow deterministically — the lowest
  // index — regardless of completion order (higher indices get no sleep,
  // so they typically *finish* first).
  ThreadPool Pool(4);
  for (int Round = 0; Round != 5; ++Round) {
    try {
      parallelForOrdered(&Pool, 16, [&](size_t I) {
        if (I == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          throw std::runtime_error("three");
        }
        if (I >= 10)
          throw std::runtime_error("ten-plus");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error &E) {
      EXPECT_STREQ(E.what(), "three");
    }
  }
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
// parallelMapOrdered
//===----------------------------------------------------------------------===//

TEST(ThreadPool, MapOrderedPreservesIndexOrderUnderJitter) {
  // A hostile scheduler: pseudo-random per-item sleeps make completion
  // order very different from index order. The result vector must still
  // be exactly [f(0), f(1), ...].
  ThreadPool Pool(8);
  for (int Round = 0; Round != 3; ++Round) {
    std::vector<int> Out = parallelMapOrdered(&Pool, 200, [&](size_t I) {
      unsigned Jitter = static_cast<unsigned>((I * 2654435761u) >> 22) % 3;
      std::this_thread::sleep_for(std::chrono::microseconds(50 * Jitter));
      return static_cast<int>(I * I);
    });
    ASSERT_EQ(Out.size(), 200u);
    for (size_t I = 0; I != Out.size(); ++I)
      ASSERT_EQ(Out[I], static_cast<int>(I * I)) << "slot " << I;
  }
}

TEST(ThreadPool, MapOrderedHandlesMoveOnlyResults) {
  ThreadPool Pool(4);
  std::vector<std::unique_ptr<int>> Out =
      parallelMapOrdered(&Pool, 50, [](size_t I) {
        return std::make_unique<int>(static_cast<int>(I));
      });
  for (size_t I = 0; I != Out.size(); ++I)
    EXPECT_EQ(*Out[I], static_cast<int>(I));
}

TEST(ThreadPool, NullPoolRunsInlineInOrder) {
  // The serial reference path: no pool means strict index order on the
  // calling thread — the semantics every parallel phase must match.
  std::vector<size_t> Seen;
  parallelForOrdered(nullptr, 10, [&](size_t I) { Seen.push_back(I); });
  std::vector<size_t> Expected(10);
  std::iota(Expected.begin(), Expected.end(), size_t(0));
  EXPECT_EQ(Seen, Expected);
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
