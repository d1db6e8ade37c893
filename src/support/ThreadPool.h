//===- support/ThreadPool.h - Deterministic parallel execution --*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size work-stealing thread pool plus ordered-reduce helpers. Its
/// users are the usher-fuzz campaign (speculative evaluation of a window
/// of candidates, `--jobs`) and the usher-serve daemon's request workers;
/// the static analysis pipeline itself runs serially.
///
/// The fuzz campaign's determinism rests on two rules:
///
///  1. Work items handed to the pool are independent: an item may read
///     shared immutable state and write only its own slot of a pre-sized
///     result vector.
///  2. All merging of per-item results happens *after* the parallel
///     region, in item-index order ("ordered reduce") — never in
///     completion order. parallelMapOrdered() packages this pattern.
///
/// Under these rules a region run with N workers produces byte-identical
/// results to the same region run inline, which is what usher-fuzz
/// `--jobs` promises and what FuzzTest's FuzzParallelDeterminism pins.
///
/// Scheduling within the pool is deliberately *not* deterministic: tasks
/// are distributed round-robin across per-worker deques, owners pop from
/// the front, and idle workers (and the submitting thread, which helps
/// instead of blocking) steal from the back of the longest queue, so a
/// skewed task mix still saturates the pool.
///
/// Exceptions thrown by work items are captured per item and rethrown to
/// the submitter by the lowest item index, deterministically, after the
/// region completes.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_THREADPOOL_H
#define USHER_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace usher {

/// Fixed-size work-stealing pool. Destruction drains every queued task
/// (tasks submitted before the destructor ran are guaranteed to execute),
/// then joins the workers.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers. Values below 2 are allowed but
  /// pointless — prefer passing a null pool to the parallel helpers,
  /// which then run inline at zero cost.
  explicit ThreadPool(unsigned NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// Tasks executed by a worker out of another worker's deque. Test and
  /// diagnostics surface; caller-help runs are not counted.
  uint64_t stealCount() const { return Steals.load(std::memory_order_relaxed); }

  /// Enqueues \p Task (round-robin across worker deques). The task must
  /// not throw — use the parallel helpers for exception-propagating work.
  void async(std::function<void()> Task);

  /// Runs one queued task on the calling thread, if any is available.
  /// Lets the submitting thread help drain a region instead of blocking.
  bool tryRunOne();

  /// The worker count `--jobs=0` resolves to: the hardware concurrency,
  /// clamped to [1, 64] so a misreported topology cannot fork-bomb.
  static unsigned defaultJobs();

private:
  void workerLoop(unsigned Me);
  /// Pops the next task for worker \p Me (own front, else steal from the
  /// back of the longest other queue). Caller holds Mtx.
  bool popTaskLocked(unsigned Me, std::function<void()> &Out, bool &WasSteal);

  mutable std::mutex Mtx;
  std::condition_variable HasWork;
  std::vector<std::deque<std::function<void()>>> Queues;
  std::vector<std::thread> Workers;
  unsigned NextQueue = 0;
  bool Stopping = false;
  std::atomic<uint64_t> Steals{0};
};

namespace detail {
/// Shared completion state of one parallel region.
struct RegionState {
  std::atomic<size_t> Remaining{0};
  std::mutex Mtx;
  std::condition_variable Done;
  std::vector<std::exception_ptr> Errors;
};
} // namespace detail

/// Runs F(0) .. F(N-1) across \p Pool and returns once all completed.
/// With a null pool, a single-thread pool, or N <= 1 the items run inline
/// on the calling thread in index order — the serial reference semantics.
/// The submitting thread helps execute queued tasks while waiting. If any
/// item threw, the exception of the lowest-index throwing item is
/// rethrown (later items still ran; items must be side-effect-independent).
template <typename Fn>
void parallelForOrdered(ThreadPool *Pool, size_t N, Fn &&F) {
  if (!Pool || Pool->numThreads() <= 1 || N <= 1) {
    for (size_t I = 0; I != N; ++I)
      F(I);
    return;
  }
  auto S = std::make_shared<detail::RegionState>();
  S->Remaining.store(N, std::memory_order_relaxed);
  S->Errors.resize(N);
  for (size_t I = 0; I != N; ++I) {
    Pool->async([S, I, &F] {
      try {
        F(I);
      } catch (...) {
        S->Errors[I] = std::current_exception();
      }
      if (S->Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> L(S->Mtx);
        S->Done.notify_all();
      }
    });
  }
  while (S->Remaining.load(std::memory_order_acquire) != 0) {
    if (!Pool->tryRunOne()) {
      std::unique_lock<std::mutex> L(S->Mtx);
      S->Done.wait_for(L, std::chrono::milliseconds(2), [&] {
        return S->Remaining.load(std::memory_order_acquire) == 0;
      });
    }
  }
  // A worker may still hold S and destroy the region state after this
  // returns. Take the errors out first so the exception objects are
  // released on this thread: their reference counts live in the C++
  // runtime, where ThreadSanitizer cannot see the synchronization.
  std::vector<std::exception_ptr> Errors = std::move(S->Errors);
  for (const std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
}

/// The deterministic ordered reduce: maps F over 0..N-1 in parallel and
/// returns the results in *index* order, never completion order. This is
/// the only sanctioned way parallel phases combine per-item results.
template <typename Fn>
auto parallelMapOrdered(ThreadPool *Pool, size_t N, Fn &&F)
    -> std::vector<decltype(F(size_t(0)))> {
  using T = decltype(F(size_t(0)));
  std::vector<std::optional<T>> Slots(N);
  parallelForOrdered(Pool, N, [&](size_t I) { Slots[I].emplace(F(I)); });
  std::vector<T> Out;
  Out.reserve(N);
  for (std::optional<T> &Slot : Slots)
    Out.push_back(std::move(*Slot));
  return Out;
}

} // namespace usher

#endif // USHER_SUPPORT_THREADPOOL_H
