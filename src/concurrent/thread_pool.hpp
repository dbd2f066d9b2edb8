// Worker thread pool draining an MpmcQueue of tasks. Models the paper's
// in-enclave data-processing pool (§5): the server thread enqueues parsed
// packets, workers perform crypto and forwarding.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "concurrent/mpmc_queue.hpp"

namespace pprox::concurrent {

/// Fixed-size pool executing std::function<void()> tasks in FIFO-ish order.
/// submit() blocks only when the bounded queue is full (backpressure).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads, std::size_t queue_capacity = 4096)
      : queue_(queue_capacity) {
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back(DetThread([this] { worker_loop(); }, "pool-worker"));
    }
  }

  ~ThreadPool() { shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; spins briefly then sleeps when the queue is full.
  /// Returns false after shutdown() (task is dropped). Every task accepted
  /// (true returned) is guaranteed to execute before shutdown() completes.
  bool submit(std::function<void()> task) {
    // The in-flight gate lets shutdown() tell "no submit will ever publish
    // again" apart from "no submit is publishing right now": a submit that
    // passed its stopping_ check races shutdown() joining the workers, and
    // its accepted task would otherwise sit in the queue forever.
    in_flight_submits_.fetch_add(1, std::memory_order_acq_rel);
    bool pushed = false;
    while (!stopping_.load(std::memory_order_acquire)) {
      // Count the task BEFORE publishing it: a worker may pop and finish it
      // the instant try_push succeeds, and its fetch_sub must never observe
      // a counter the task is missing from (transient underflow would let
      // drain() return while work is still in flight).
      pending_.fetch_add(1, std::memory_order_acq_rel);
      if (queue_.try_push(std::move(task))) {
        LockGuard lock(mutex_);
        cv_.notify_one();
        pushed = true;
        break;
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        LockGuard lock(mutex_);
        drained_cv_.notify_all();
      }
      std::this_thread::yield();
    }
    {
      LockGuard lock(mutex_);
      if (in_flight_submits_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        submit_done_cv_.notify_all();
      }
    }
    return pushed;
  }

  /// Blocks until every submitted task has finished executing.
  void drain() {
    UniqueLock lock(mutex_);
    drained_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }

  /// Stops accepting tasks, finishes queued work, joins all workers.
  void shutdown() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) return;
    {
      LockGuard lock(mutex_);
      cv_.notify_all();
    }
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    // A submit() that passed its stopping_ check before the CAS above may
    // publish its task only after every worker exited. Wait for such
    // stragglers to land, then run whatever is left inline so "accepted
    // implies executed" holds.
    {
      UniqueLock lock(mutex_);
      submit_done_cv_.wait(lock, [this] {
        return in_flight_submits_.load(std::memory_order_acquire) == 0;
      });
    }
    while (auto task = queue_.try_pop()) {
      (*task)();
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        LockGuard lock(mutex_);
        drained_cv_.notify_all();
      }
    }
  }

  std::size_t num_threads() const { return workers_.size(); }

 private:
  void worker_loop() {
    while (true) {
      auto task = queue_.try_pop();
      if (task.has_value()) {
        (*task)();
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          LockGuard lock(mutex_);
          drained_cv_.notify_all();
        }
        continue;
      }
      if (stopping_.load(std::memory_order_acquire)) return;
      // Untimed wait: every try_push success and shutdown() notifies under
      // mutex_, and the predicate re-checks under mutex_, so no wakeup can
      // be lost. (An earlier 1ms timed wait "covered" missed notifies by
      // polling; under a worker-favouring schedule that polling loop never
      // yields — pprox_check flagged it as an unbounded spin,
      // tools/traces/pool_worker_spin.txt.)
      UniqueLock lock(mutex_);
      cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) ||
               queue_.approx_size() > 0;
      });
    }
  }

  MpmcQueue<std::function<void()>> queue_;  // lock-free, internally ordered
  std::vector<DetThread> workers_;
  Atomic<bool> stopping_{false};
  Atomic<std::size_t> pending_{0};
  Atomic<std::size_t> in_flight_submits_{0};
  Mutex mutex_;  // guards only the cv sleep/wake protocol
  CondVar cv_;
  CondVar drained_cv_;
  CondVar submit_done_cv_;  // shutdown() waits out straggling submit()s
};

}  // namespace pprox::concurrent
