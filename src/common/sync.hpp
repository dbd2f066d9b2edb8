// PProx sync-abstraction layer: pprox::Mutex, pprox::SharedMutex,
// pprox::CondVar, pprox::Atomic, pprox::DetThread, pprox::SteadyClock. All
// concurrency primitives in src/ go through these types (enforced by the
// pprox_lint `raw-sync` rule).
//
// Every member has one body: the std operation, plus a schedule point inside
// `if constexpr (det::kModelCheck)`.
//
//  * Normal builds discard those branches, so every type is a zero-overhead
//    passthrough to the corresponding <mutex>/<shared_mutex>/
//    <condition_variable>/<atomic>/<thread> primitive, of the same size
//    (tests/test_sync.cpp pins it). No scheduler hook is odr-used, and no
//    scheduler is linked.
//
//  * -DPPROX_MODEL_CHECK builds: every acquire/release/wait/notify/atomic op
//    first reports to the pprox::det cooperative scheduler through the hooks
//    declared below. tools/det_explorer.cpp defines them and is built only in
//    those trees. It serialises all managed threads and explores thread
//    interleavings — bounded exhaustive DFS with sleep-set pruning and a
//    preemption bound, or PCT-style randomised priorities. Threads that are
//    not under exploration (det::managed() == false) fall through to the real
//    primitives, so ordinary tests still run in a model-check build.
//
// The deterministic scheduler also virtualises time: under exploration,
// SteadyClock::now() reads a logical clock and every timed condition-variable
// wait becomes a nondeterministic "timeout fires" scheduling choice, so
// timer-vs-size flush races are explored systematically instead of by
// sleeping. See DESIGN.md §9 and tools/pprox_check.cpp for the models.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <source_location>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/thread_annotations.hpp"

// Fatal contract check, active in every build flavour (unlike <cassert> it
// does not vanish under NDEBUG: double-joining a thread or re-locking a held
// UniqueLock is a bug we want release builds to catch too). Exits with a
// plain status code rather than SIGABRT so ctest WILL_FAIL harnesses can
// invert it portably.
#define PPROX_SYNC_ASSERT(cond, msg)                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "PPROX_SYNC_ASSERT failed at %s:%d: %s\n",    \
                   __FILE__, __LINE__, msg);                             \
      std::fflush(stderr);                                               \
      std::_Exit(1);                                                     \
    }                                                                    \
  } while (0)

namespace pprox {

class CondVar;
class Mutex;
class UniqueLock;

namespace det {

// The per-object scheduler records live inside the primitives, so no global
// registry lookup is needed. Only model-check builds give them fields; in
// normal builds they are empty and [[no_unique_address]], so each primitive
// is exactly the size of the std type it wraps.
#ifdef PPROX_MODEL_CHECK
inline constexpr bool kModelCheck = true;
// Mutex/CondVar/Atomic identity. The scheduler assigns `id` on first use
// within an exploration and resets it between executions for stable
// numbering.
struct ObjRecord {
  std::uint64_t id = 0;
  int owner = -1;            // mutex: managed thread id currently holding it
  std::uint64_t tokens = 0;  // condvar: pending notify wake permits
  std::uint64_t epoch = 0;   // execution that last touched this record
};
// DetThread identity: its managed-thread id, or -1 when it was started by an
// unmanaged thread.
struct ThreadRecord {
  int id = -1;
};
#else
inline constexpr bool kModelCheck = false;
struct ObjRecord {};
struct ThreadRecord {};
#endif

// One schedule-relevant operation kind. Used for trace printing and for the
// independence relation behind sleep-set pruning.
enum class OpKind : std::uint8_t {
  kMutexLock,
  kMutexUnlock,
  kCvWait,       // wait entry: atomically releases the mutex and blocks
  kCvWake,       // wait exit: woken (notify or timeout) and reacquires
  kCvNotifyOne,
  kCvNotifyAll,
  kAtomicLoad,
  kAtomicStore,
  kAtomicRmw,
  kThreadCreate,
  kThreadStart,  // first scheduling of a new thread
  kThreadJoin,
  kThreadExit,
  kTimeAdvance,
};

// Trimmed std::source_location: the full object is not trivially copyable
// across the scheduler boundary and we only print file:line.
struct SourceLoc {
  const char* file = "?";
  unsigned line = 0;
};

inline SourceLoc loc_of(const std::source_location& loc) {
  return SourceLoc{loc.file_name(), loc.line()};
}

// --- Schedule-point hooks. The primitives below call them only inside
// `if constexpr (kModelCheck)`; tools/det_explorer.cpp defines them. -----

// True iff the calling thread is under the deterministic scheduler. All
// primitives branch on this so unmanaged threads in a model-check build
// (ordinary unit tests, the ctest runner itself) use the real OS paths.
bool managed() noexcept;

void mutex_lock(ObjRecord* mu, SourceLoc loc);
void mutex_unlock(ObjRecord* mu, SourceLoc loc);
// Returns false iff the wait ended by timeout. `deadline_ms` is on the
// virtual clock; ignored when `timed` is false.
bool cv_wait(ObjRecord* cv, ObjRecord* mu, bool timed, std::uint64_t deadline_ms,
             SourceLoc loc);
void cv_notify(ObjRecord* cv, bool all, SourceLoc loc);
void atomic_op(const ObjRecord* obj, OpKind kind, SourceLoc loc);
// Registers a new managed thread and stores its id in `*thread`.
void thread_create(ThreadRecord* thread, const char* name, SourceLoc loc);
void thread_start(ThreadRecord thread);
void thread_exit(ThreadRecord thread);
void thread_join(ThreadRecord thread, SourceLoc loc);
// Virtual clock (milliseconds).
std::uint64_t now_ms() noexcept;

}  // namespace det

// Every schedule point records its caller's file:line for the trace.
#define PPROX_SYNC_LOC \
  const std::source_location& sloc = std::source_location::current()

class PPROX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
  Mutex(Mutex&&) = delete;
  Mutex& operator=(Mutex&&) = delete;

  void lock(PPROX_SYNC_LOC) PPROX_ACQUIRE() {
    if constexpr (det::kModelCheck) {
      if (det::managed()) det::mutex_lock(&rec_, det::loc_of(sloc));
    }
    real_.lock();
  }
  void unlock(PPROX_SYNC_LOC) PPROX_RELEASE() {
    real_.unlock();
    if constexpr (det::kModelCheck) {
      if (det::managed()) det::mutex_unlock(&rec_, det::loc_of(sloc));
    }
  }

 private:
  friend class CondVar;
  friend class UniqueLock;
  std::mutex real_;
  [[no_unique_address]] det::ObjRecord rec_;
};

// Reader/writer mutex. In normal builds a std::shared_mutex passthrough;
// under exploration shared acquisitions degrade to exclusive ones — a sound
// over-approximation (readers never conflict, so serialising them removes no
// observable behaviour while keeping the scheduler's mutex protocol simple).
class PPROX_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  ~SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;
  SharedMutex(SharedMutex&&) = delete;
  SharedMutex& operator=(SharedMutex&&) = delete;

  void lock(PPROX_SYNC_LOC) PPROX_ACQUIRE() {
    if constexpr (det::kModelCheck) {
      if (det::managed()) det::mutex_lock(&rec_, det::loc_of(sloc));
    }
    real_.lock();
  }
  void unlock(PPROX_SYNC_LOC) PPROX_RELEASE() {
    real_.unlock();
    if constexpr (det::kModelCheck) {
      if (det::managed()) det::mutex_unlock(&rec_, det::loc_of(sloc));
    }
  }
  void lock_shared(PPROX_SYNC_LOC) PPROX_ACQUIRE_SHARED() {
    if constexpr (det::kModelCheck) {
      if (det::managed()) {
        det::mutex_lock(&rec_, det::loc_of(sloc));
        real_.lock();  // exclusive under exploration (see class comment)
        return;
      }
    }
    real_.lock_shared();
  }
  void unlock_shared(PPROX_SYNC_LOC) PPROX_RELEASE_SHARED() {
    if constexpr (det::kModelCheck) {
      if (det::managed()) {
        real_.unlock();
        det::mutex_unlock(&rec_, det::loc_of(sloc));
        return;
      }
    }
    real_.unlock_shared();
  }

 private:
  std::shared_mutex real_;
  [[no_unique_address]] det::ObjRecord rec_;
};

// RAII lock for a whole scope. Equivalent of std::lock_guard.
class PPROX_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) PPROX_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() PPROX_RELEASE() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

// Relockable RAII lock, usable with CondVar. Equivalent of std::unique_lock.
class PPROX_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) PPROX_ACQUIRE(mutex) : mutex_(&mutex) {
    mutex_->lock();
    owned_ = true;
  }
  ~UniqueLock() PPROX_RELEASE() {
    if (owned_) mutex_->unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() PPROX_ACQUIRE() {
    PPROX_SYNC_ASSERT(!owned_, "UniqueLock::lock() on a held lock");
    mutex_->lock();
    owned_ = true;
  }
  void unlock() PPROX_RELEASE() {
    PPROX_SYNC_ASSERT(owned_, "UniqueLock::unlock() on a released lock");
    mutex_->unlock();
    owned_ = false;
  }
  bool owns_lock() const noexcept { return owned_; }
  Mutex* mutex() const noexcept PPROX_RETURN_CAPABILITY(*mutex_) {
    return mutex_;
  }

 private:
  Mutex* mutex_;
  bool owned_ = false;
};

// RAII exclusive (writer) lock on a SharedMutex.
class PPROX_SCOPED_CAPABILITY WriteLock {
 public:
  explicit WriteLock(SharedMutex& mutex) PPROX_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~WriteLock() PPROX_RELEASE() { mutex_.unlock(); }
  WriteLock(const WriteLock&) = delete;
  WriteLock& operator=(const WriteLock&) = delete;

 private:
  SharedMutex& mutex_;
};

// RAII shared (reader) lock on a SharedMutex.
class PPROX_SCOPED_CAPABILITY ReadLock {
 public:
  explicit ReadLock(SharedMutex& mutex) PPROX_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ~ReadLock() PPROX_RELEASE_SHARED() { mutex_.unlock_shared(); }
  ReadLock(const ReadLock&) = delete;
  ReadLock& operator=(const ReadLock&) = delete;

 private:
  SharedMutex& mutex_;
};

// Inverse RAII: releases a held UniqueLock for the current scope and
// re-acquires it on exit. The structured replacement for the
// `lock.unlock(); call(); lock.lock();` juggle — pprox_lint --locks flags
// that shape (PPROX-LOCK-MANUAL) because an early return or a throw between
// the bare calls leaves the lock in the wrong state, and the analyzer's
// held-set tracking cannot follow it. Clang's thread-safety analysis cannot
// model an un-then-relock scope either, hence the opt-out annotations.
class ScopedUnlock {
 public:
  explicit ScopedUnlock(UniqueLock& lock) PPROX_NO_THREAD_SAFETY_ANALYSIS
      : lock_(lock) {
    PPROX_SYNC_ASSERT(lock_.owns_lock(), "ScopedUnlock on a released lock");
    lock_.unlock();
  }
  ~ScopedUnlock() PPROX_NO_THREAD_SAFETY_ANALYSIS { lock_.lock(); }
  ScopedUnlock(const ScopedUnlock&) = delete;
  ScopedUnlock& operator=(const ScopedUnlock&) = delete;

 private:
  UniqueLock& lock_;
};

// Virtualisable monotonic clock. In normal builds this is exactly
// std::chrono::steady_clock; under exploration now() reads the scheduler's
// logical clock so timeouts become schedule choices instead of wall waits.
struct SteadyClock {
  using duration = std::chrono::steady_clock::duration;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::steady_clock::time_point;
  static constexpr bool is_steady = true;

  static time_point now() {
    if constexpr (det::kModelCheck) {
      if (det::managed()) {
        return time_point(std::chrono::duration_cast<duration>(
            std::chrono::milliseconds(det::now_ms())));
      }
    }
    return std::chrono::steady_clock::now();
  }
};

// Condition variable working with UniqueLock over pprox::Mutex.
class CondVar {
 public:
  CondVar() = default;
  ~CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one(PPROX_SYNC_LOC) {  // PPROX-HOTPATH-OK(recursion): ghost cycle — real_.notify_one() on the std cv field name-resolves to this wrapper; the real notify never re-enters
    if constexpr (det::kModelCheck) {
      if (det::managed()) {
        det::cv_notify(&rec_, /*all=*/false, det::loc_of(sloc));
        return;
      }
    }
    real_.notify_one();
  }
  void notify_all(PPROX_SYNC_LOC) {  // PPROX-HOTPATH-OK(recursion): ghost cycle — real_.notify_all() on the std cv field name-resolves to this wrapper; the real notify never re-enters
    if constexpr (det::kModelCheck) {
      if (det::managed()) {
        det::cv_notify(&rec_, /*all=*/true, det::loc_of(sloc));
        return;
      }
    }
    real_.notify_all();
  }

  void wait(UniqueLock& lock, PPROX_SYNC_LOC) {
    if constexpr (det::kModelCheck) {
      if (det::managed()) {
        wait_managed(lock, /*timed=*/false, 0, sloc);
        return;
      }
    }
    real_.wait(lock);
  }

  template <typename Predicate>
  void wait(UniqueLock& lock, Predicate pred, PPROX_SYNC_LOC) {
    while (!pred()) wait(lock, sloc);
  }

  std::cv_status wait_until(UniqueLock& lock,
                            std::chrono::steady_clock::time_point deadline,
                            PPROX_SYNC_LOC) {
    if constexpr (det::kModelCheck) {
      if (det::managed()) {
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline.time_since_epoch())
                            .count();
        const std::uint64_t deadline_ms = ms < 0 ? 0 : static_cast<std::uint64_t>(ms);
        return wait_managed(lock, /*timed=*/true, deadline_ms, sloc)
                   ? std::cv_status::no_timeout
                   : std::cv_status::timeout;
      }
    }
    return real_.wait_until(lock, deadline);
  }

  template <typename Predicate>
  bool wait_until(UniqueLock& lock,
                  std::chrono::steady_clock::time_point deadline,
                  Predicate pred, PPROX_SYNC_LOC) {
    while (!pred()) {
      if (wait_until(lock, deadline, sloc) == std::cv_status::timeout) {
        return pred();
      }
    }
    return true;
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueLock& lock,
                          std::chrono::duration<Rep, Period> duration) {
    return wait_until(lock, SteadyClock::now() +
                                std::chrono::duration_cast<
                                    std::chrono::steady_clock::duration>(duration));
  }

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(UniqueLock& lock, std::chrono::duration<Rep, Period> duration,
                Predicate pred) {
    return wait_until(lock,
                      SteadyClock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(duration),
                      std::move(pred));
  }

 private:
  // Managed threads only (reached from the model-check branches above):
  // drops the real mutex, parks in the scheduler, reacquires on wake.
  // Returns true if woken by a notify, false on timeout.
  bool wait_managed(UniqueLock& lock, bool timed, std::uint64_t deadline_ms,
                    const std::source_location& sloc) {
    Mutex* mu = lock.mutex();
    mu->real_.unlock();
    const bool notified =
        det::cv_wait(&rec_, &mu->rec_, timed, deadline_ms, det::loc_of(sloc));
    mu->real_.lock();
    return notified;
  }

  // condition_variable_any: works with UniqueLock as a BasicLockable.
  std::condition_variable_any real_;
  [[no_unique_address]] det::ObjRecord rec_;
};

// Sequentially-consistent-by-default atomic. Memory-order arguments are
// forwarded to the std atomic; under exploration every op is also a
// schedule point and executes seq-cst (the scheduler serialises managed
// threads anyway, so weaker orders add no behaviours it can see).
template <typename T>
class Atomic {
 public:
  Atomic() noexcept = default;
  constexpr Atomic(T desired) noexcept : real_(desired) {}
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst,
         PPROX_SYNC_LOC) const noexcept {
    schedule_point(det::OpKind::kAtomicLoad, sloc);
    return real_.load(order);
  }
  void store(T desired, std::memory_order order = std::memory_order_seq_cst,
             PPROX_SYNC_LOC) noexcept {
    schedule_point(det::OpKind::kAtomicStore, sloc);
    real_.store(desired, order);
  }
  T exchange(T desired, std::memory_order order = std::memory_order_seq_cst,
             PPROX_SYNC_LOC) noexcept {
    schedule_point(det::OpKind::kAtomicRmw, sloc);
    return real_.exchange(desired, order);
  }
  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order order = std::memory_order_seq_cst,
                             PPROX_SYNC_LOC) noexcept {
    schedule_point(det::OpKind::kAtomicRmw, sloc);
    return real_.compare_exchange_weak(expected, desired, order,
                                       load_order(order));
  }
  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order order = std::memory_order_seq_cst,
                               PPROX_SYNC_LOC) noexcept {
    schedule_point(det::OpKind::kAtomicRmw, sloc);
    return real_.compare_exchange_strong(expected, desired, order,
                                         load_order(order));
  }

  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U> &&
                                        !std::is_same_v<U, bool>>>
  T fetch_add(T arg, std::memory_order order = std::memory_order_seq_cst,
              PPROX_SYNC_LOC) noexcept {
    schedule_point(det::OpKind::kAtomicRmw, sloc);
    return real_.fetch_add(arg, order);
  }
  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U> &&
                                        !std::is_same_v<U, bool>>>
  T fetch_sub(T arg, std::memory_order order = std::memory_order_seq_cst,
              PPROX_SYNC_LOC) noexcept {
    schedule_point(det::OpKind::kAtomicRmw, sloc);
    return real_.fetch_sub(arg, order);
  }

 private:
  void schedule_point(det::OpKind kind,
                      const std::source_location& sloc) const noexcept {
    if constexpr (det::kModelCheck) {
      if (det::managed()) det::atomic_op(&rec_, kind, det::loc_of(sloc));
    }
  }

  // Failure order for CAS: drop the release part of the success order.
  static constexpr std::memory_order load_order(std::memory_order order) {
    switch (order) {
      case std::memory_order_acq_rel:
        return std::memory_order_acquire;
      case std::memory_order_release:
        return std::memory_order_relaxed;
      default:
        return order;
    }
  }

  std::atomic<T> real_{};
  [[no_unique_address]] mutable det::ObjRecord rec_;
};

// Joinable thread with a double-join contract check; under exploration the
// body runs as a managed thread with create/start/join/exit schedule points.
class DetThread {
 public:
  DetThread() = default;

  explicit DetThread(std::function<void()> fn, const char* name = "thread",
                     PPROX_SYNC_LOC) {
    if constexpr (det::kModelCheck) {
      if (det::managed()) {
        det::thread_create(&det_, name, det::loc_of(sloc));
        os_ = std::thread([fn = std::move(fn), self = det_] {
          det::thread_start(self);
          fn();
          det::thread_exit(self);
        });
        return;
      }
    }
    os_ = std::thread(std::move(fn));
  }

  DetThread(DetThread&& other) noexcept = default;
  DetThread& operator=(DetThread&& other) noexcept {
    PPROX_SYNC_ASSERT(!os_.joinable(),
                      "DetThread assigned over a joinable thread");
    os_ = std::move(other.os_);
    det_ = std::exchange(other.det_, {});
    return *this;
  }
  DetThread(const DetThread&) = delete;
  DetThread& operator=(const DetThread&) = delete;

  // Like std::thread, destroying a joinable DetThread terminates: losing a
  // running thread silently is never intended in this codebase.
  ~DetThread() {
    PPROX_SYNC_ASSERT(!os_.joinable(), "DetThread destroyed without join()");
  }

  bool joinable() const noexcept { return os_.joinable(); }

  void join(PPROX_SYNC_LOC) {
    PPROX_SYNC_ASSERT(os_.joinable(), "DetThread joined twice");
    if constexpr (det::kModelCheck) {
      if (det::managed()) det::thread_join(det_, det::loc_of(sloc));
    }
    os_.join();
  }

 private:
  std::thread os_;
  [[no_unique_address]] det::ThreadRecord det_;
};

#undef PPROX_SYNC_LOC

}  // namespace pprox
