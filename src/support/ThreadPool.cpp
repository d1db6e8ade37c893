//===- support/ThreadPool.cpp - Fixed-size FIFO worker pool ---------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace usher;

ThreadPool::ThreadPool(unsigned NumThreads) {
  NumThreads = std::clamp(NumThreads, 1u, 64u);
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(Mtx);
    Stopping = true;
  }
  HasWork.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::async(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> L(Mtx);
    Queue.push_back(std::move(Task));
  }
  HasWork.notify_one();
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> L(Mtx);
      HasWork.wait(L, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained: shutdown is clean mid-queue.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}
