// PPROX-LAYER: shared
//
// Request/response shuffling buffer (paper §4.3, Fig. 5): items are
// buffered until S of them are pending or a timer expires, then released in
// randomized order. Breaks the temporal correlation between a proxy layer's
// inbound and outbound messages.
//
// The queue is generic over the buffered item type; the proxy instantiates
// it with typed pending-request/response structs, so a whole batch can cross
// the enclave boundary as one ecall through the batch sink passed to the
// constructor: on every flush, `sink(span<Item>, FlushInfo)` is invoked once
// with the already-shuffled batch. The vector's storage stays owned by the
// queue and is recycled (two pre-reserved buffers ping-pong between
// "filling" and "releasing"), so the steady-state add()/flush cycle performs
// no heap allocation at all.
//
// Buffered items carry *ciphertext only* (an already-transformed request or
// a sealed response) or plaintext that is still sealed inside an HTTP body
// awaiting its in-enclave batch transform: this TU is flow-lint "shared",
// so it can never name a taint domain or declassifier, and cleartext could
// only leak through a declassify_* call upstream — which the lint audits at
// that call site.
#pragma once

#include <chrono>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/hotpath.hpp"
#include "common/rand.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "crypto/drbg.hpp"

namespace pprox {

/// Why a batch was released. Reported to the batch sink, so the pprox_check
/// shuffle model can verify "flush at exactly S or timer".
enum class FlushReason { kSize, kTimer, kExplicit };

/// Snapshot of one flush, taken under the queue lock at swap time.
struct FlushInfo {
  FlushReason reason;
  std::size_t batch_size;
  /// Deadline of the arming epoch current at swap time (kTimer only).
  SteadyClock::time_point deadline;
  SteadyClock::time_point now;
};

template <typename Item>
class ShuffleQueue {
 public:
  /// Invoked once per released batch with the shuffled items. The span's
  /// backing storage belongs to the queue (recycled across flushes): the
  /// sink must move what it needs out of the items before returning.
  using BatchSink = std::function<void(std::span<Item>, const FlushInfo&)>;

  /// size <= 1 disables buffering (each item passes straight through to the
  /// sink as a single-item batch). The timer bounds worst-case queuing delay
  /// under low traffic.
  ShuffleQueue(int size, std::chrono::milliseconds timeout, BatchSink sink)
      : size_(size), timeout_(timeout), sink_(std::move(sink)) {
    if (size_ > 1) {
      // A batch can never exceed S items, and a releasing batch returns its
      // storage before the next flush in steady state: reserving two
      // buffers here makes the add()/flush cycle allocation-free.
      buffer_.reserve(static_cast<std::size_t>(size_));
      spare_.reserve(static_cast<std::size_t>(size_));
      timer_ = DetThread([this] { timer_loop(); }, "shuffle-timer");
    }
  }

  ~ShuffleQueue() {
    {
      LockGuard lock(mutex_);
      stopping_ = true;
      cv_.notify_all();
    }
    if (timer_.joinable()) timer_.join();
    flush_now();  // do not strand queued work
  }

  ShuffleQueue(const ShuffleQueue&) = delete;
  ShuffleQueue& operator=(const ShuffleQueue&) = delete;

  /// Adds an item. May synchronously flush (and release the batch on the
  /// calling thread) when the buffer reaches S.
  PPROX_HOT void add(Item item) PPROX_EXCLUDES(mutex_) {
    if (size_ <= 1) {
      pass_through(std::move(item));
      return;
    }
    std::vector<Item> batch;
    FlushInfo info{FlushReason::kSize, 0, {}, {}};
    {
      LockGuard lock(mutex_);
      // PPROX-HOTPATH-OK(alloc): buffer_ is pre-reserved to S at
      // construction and refilled from the reserved spare at swap time, so
      // the steady-state push_back never grows.
      buffer_.push_back(std::move(item));
      if (static_cast<int>(buffer_.size()) >= size_) {
        batch.swap(buffer_);
        refill_buffer_locked();
        deadline_armed_ = false;
        ++arm_generation_;
        info = FlushInfo{FlushReason::kSize, batch.size(), deadline_,
                         SteadyClock::now()};
      } else if (buffer_.size() == 1) {
        deadline_ = SteadyClock::now() + timeout_;
        deadline_armed_ = true;
        ++arm_generation_;
        cv_.notify_all();
      }
    }
    if (!batch.empty()) release(std::move(batch), info);
  }

  /// Forces an immediate flush (used by tests and shutdown).
  void flush_now() PPROX_EXCLUDES(mutex_) {
    std::vector<Item> batch;
    FlushInfo info{FlushReason::kExplicit, 0, {}, {}};
    {
      LockGuard lock(mutex_);
      batch.swap(buffer_);
      refill_buffer_locked();
      deadline_armed_ = false;
      ++arm_generation_;
      info = FlushInfo{FlushReason::kExplicit, batch.size(), deadline_,
                       SteadyClock::now()};
    }
    if (!batch.empty()) release(std::move(batch), info);
  }

  std::size_t buffered() const PPROX_EXCLUDES(mutex_) {
    LockGuard lock(mutex_);
    return buffer_.size();
  }
  std::uint64_t flush_count() const {
    return flushes_.load(std::memory_order_relaxed);
  }

 private:
  /// size <= 1: no buffering and no flush accounting, but the sink still
  /// sees the item as a single-item batch so callers keep one code path for
  /// both modes.
  PPROX_HOT void pass_through(Item item) PPROX_EXCLUDES(mutex_) {
    std::vector<Item> batch;
    {
      LockGuard lock(mutex_);
      batch = take_spare_locked(1);
    }
    batch.push_back(std::move(item));
    sink_(std::span<Item>(batch),
          FlushInfo{FlushReason::kExplicit, 1, {}, SteadyClock::now()});
    recycle(std::move(batch));
  }

  /// Replaces buffer_ (just swapped out) with reserved storage. Called
  /// under the queue lock at every swap.
  void refill_buffer_locked() PPROX_REQUIRES(mutex_) {
    buffer_ = take_spare_locked(static_cast<std::size_t>(size_));
  }

  std::vector<Item> take_spare_locked(std::size_t capacity)
      PPROX_REQUIRES(mutex_) {
    std::vector<Item> storage;
    if (spare_.capacity() >= capacity) {
      storage.swap(spare_);
    } else {
      // PPROX-HOTPATH-OK(alloc): cold — only when a previous batch is still
      // releasing concurrently (two flushes in flight); steady state reuses
      // the two construction-time reservations.
      storage.reserve(capacity);
    }
    return storage;
  }

  /// Returns a released batch's storage to the spare slot for the next swap.
  void recycle(std::vector<Item>&& batch) PPROX_EXCLUDES(mutex_) {
    batch.clear();
    LockGuard lock(mutex_);
    if (spare_.capacity() < batch.capacity()) spare_ = std::move(batch);
  }

  void release(std::vector<Item>&& batch, const FlushInfo& info)
      PPROX_EXCLUDES(mutex_) {
    shuffle(batch, rng_);
    flushes_.fetch_add(1, std::memory_order_relaxed);
    sink_(std::span<Item>(batch), info);
    recycle(std::move(batch));
  }

  void timer_loop() PPROX_EXCLUDES(mutex_) {
    UniqueLock lock(mutex_);
    while (!stopping_) {
      if (!deadline_armed_) {
        cv_.wait(lock, [this] { return stopping_ || deadline_armed_; });
        continue;
      }
      // A timeout may only flush the arming it waited on. The generation
      // stamp distinguishes "this arming's deadline passed" from "the
      // arming changed underneath the wait": without it, a size-flush +
      // re-arm while the timer is parked leaves the wait bound to the
      // retired (earlier) deadline, and the successor batch gets flushed
      // before its delay bound (tools/traces/shuffle_stale_deadline.txt).
      const std::uint64_t gen = arm_generation_;
      const auto deadline = deadline_;
      const bool changed = cv_.wait_until(lock, deadline, [this, gen] {
        return stopping_ || !deadline_armed_ || arm_generation_ != gen;
      });
      if (changed || stopping_ || !deadline_armed_ ||
          arm_generation_ != gen) {
        continue;  // re-armed, flushed by size, or stopping
      }
      // This arming's deadline passed with its buffer still pending: flush.
      std::vector<Item> batch;
      batch.swap(buffer_);
      refill_buffer_locked();
      deadline_armed_ = false;
      ++arm_generation_;
      const FlushInfo info{FlushReason::kTimer, batch.size(), deadline,
                           SteadyClock::now()};
      {
        ScopedUnlock unlocked(lock);
        if (!batch.empty()) release(std::move(batch), info);
      }
    }
  }

  const int size_;
  const std::chrono::milliseconds timeout_;
  crypto::Drbg rng_;  // internally synchronized
  const BatchSink sink_;

  mutable Mutex mutex_;
  CondVar cv_;
  std::vector<Item> buffer_ PPROX_GUARDED_BY(mutex_);
  /// Reserved storage handed to buffer_ at swap time and refilled when the
  /// released batch returns — the second half of the ping-pong pair.
  std::vector<Item> spare_ PPROX_GUARDED_BY(mutex_);
  SteadyClock::time_point deadline_ PPROX_GUARDED_BY(mutex_){};
  bool deadline_armed_ PPROX_GUARDED_BY(mutex_) = false;
  // Bumped on every arm/disarm so the timer can tell a wake-up for the
  // deadline it armed from a wake-up for a successor deadline.
  std::uint64_t arm_generation_ PPROX_GUARDED_BY(mutex_) = 0;
  bool stopping_ PPROX_GUARDED_BY(mutex_) = false;
  Atomic<std::uint64_t> flushes_{0};  // read lock-free by flush_count()
  DetThread timer_;
};

}  // namespace pprox
