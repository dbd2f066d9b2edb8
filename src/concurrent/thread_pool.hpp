// Worker thread pool: the paper's in-enclave data-processing pool (§5). The
// server thread submits parsed packets; workers perform crypto and
// forwarding. One mutex guards a ring of task slots allocated at
// construction, so a hand-off move-assigns into a slot and never allocates.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace pprox::concurrent {

/// Fixed-size pool executing std::function<void()> tasks in FIFO order.
/// submit() blocks only while the bounded ring is full (backpressure).
/// Needs at least one worker thread for accepted tasks to run.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads, std::size_t queue_capacity = 4096)
      : ring_(queue_capacity > 0 ? queue_capacity : 1) {
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back(DetThread([this] { worker_loop(); }, "pool-worker"));
    }
  }

  ~ThreadPool() { shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task, waiting while the ring is full. Returns false once
  /// shutdown() has begun (the task is dropped). Every task accepted (true
  /// returned) runs before shutdown() returns.
  bool submit(std::function<void()> task) PPROX_EXCLUDES(mutex_) {
    {
      UniqueLock lock(mutex_);
      not_full_.wait(lock,
                     [this] { return stopping_ || size_ < ring_.size(); });
      if (stopping_) return false;
      ring_[(head_ + size_) % ring_.size()] = std::move(task);
      ++size_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Stops accepting tasks, turns away blocked submitters, runs every
  /// accepted task and joins all workers. Idempotent.
  void shutdown() PPROX_EXCLUDES(mutex_) {
    {
      LockGuard lock(mutex_);
      if (stopping_) return;
      stopping_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
    for (DetThread& w : workers_) w.join();
  }

 private:
  // A worker leaves only once shutdown has begun AND the ring is empty, so
  // no accepted task is stranded without a thread to run it.
  void worker_loop() PPROX_EXCLUDES(mutex_) {
    while (true) {
      std::function<void()> task;
      {
        UniqueLock lock(mutex_);
        not_empty_.wait(lock, [this] { return stopping_ || size_ > 0; });
        if (size_ == 0) return;
        task = std::exchange(ring_[head_], nullptr);
        head_ = (head_ + 1) % ring_.size();
        --size_;
      }
      not_full_.notify_one();
      task();
    }
  }

  Mutex mutex_;
  CondVar not_empty_;  // workers wait for a task or shutdown
  CondVar not_full_;   // submitters wait for a free slot or shutdown
  std::vector<std::function<void()>> ring_ PPROX_GUARDED_BY(mutex_);
  std::size_t head_ PPROX_GUARDED_BY(mutex_) = 0;
  std::size_t size_ PPROX_GUARDED_BY(mutex_) = 0;
  bool stopping_ PPROX_GUARDED_BY(mutex_) = false;
  std::vector<DetThread> workers_;
};

}  // namespace pprox::concurrent
