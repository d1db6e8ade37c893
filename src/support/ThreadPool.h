//===- support/ThreadPool.h - Fixed-size FIFO worker pool -------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed number of workers serving one mutex-guarded FIFO queue. The
/// only user is the usher-serve daemon (serve/Daemon.h), which hands each
/// admitted request to async() and relies on destruction draining every
/// queued task; the analysis pipeline and the fuzz campaign run serially.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_THREADPOOL_H
#define USHER_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace usher {

/// Fixed-size FIFO pool. Destruction drains every queued task (tasks
/// submitted before the destructor ran are guaranteed to execute), then
/// joins the workers.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers, clamped to [1, 64].
  explicit ThreadPool(unsigned NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Task at the back of the queue. The task must not throw.
  void async(std::function<void()> Task);

private:
  void workerLoop();

  std::mutex Mtx;
  std::condition_variable HasWork;
  std::deque<std::function<void()>> Queue;
  bool Stopping = false;
  /// Declared last: workers read every member above.
  std::vector<std::thread> Workers;
};

} // namespace usher

#endif // USHER_SUPPORT_THREADPOOL_H
