// pprox_check — deterministic interleaving explorer for the PProx
// shuffle/rotation concurrency core (DESIGN.md §9).
//
// Each --model drives real pprox code (or, for rotation, a faithful
// miniature of Deployment::rotate) under the pprox::det cooperative
// scheduler: the primitives of src/common/sync.hpp call its schedule-point
// hooks, and det_explorer.{hpp,cpp} beside this file explore the schedules —
// bounded exhaustive DFS with sleep-set pruning and a preemption bound, or
// PCT-style randomised priorities. Timed condition-variable waits run on a
// virtual clock, so timer-vs-size races are explored systematically instead
// of slept for.
//
// On an invariant violation or deadlock the scheduler prints a numbered
// interleaving trace with source locations and a `--replay t0,t1,...`
// schedule that reproduces it deterministically; committed reproductions
// of the bugs this tool found live in tools/traces/.
//
// Build: -DPPROX_MODEL_CHECK=ON (tools/CMakeLists.txt only adds this
// target in that configuration). -DPPROX_CHECK_SELFTEST=ON additionally
// runs every model on a buggy subject — the shuffle and pool models on the
// small variants below, rotation and lockorder on the pre-fix branch of
// their bodies — so every model must FAIL: a permanent regression test of
// the checker itself. The production headers carry no selftest code.
#ifndef PPROX_MODEL_CHECK
#error "pprox_check requires -DPPROX_MODEL_CHECK (see tools/CMakeLists.txt)"
#endif

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "concurrent/thread_pool.hpp"
#include "det_explorer.hpp"
#include "pprox/shuffle.hpp"

namespace {

using pprox::Atomic;
using pprox::CondVar;
using pprox::DetThread;
using pprox::FlushInfo;
using pprox::FlushReason;
using pprox::LockGuard;
using pprox::Mutex;
using pprox::ScopedUnlock;
using pprox::ShuffleQueue;
using pprox::SteadyClock;
using pprox::UniqueLock;
namespace det = pprox::det;

// ---------------------------------------------------------------------------
// Model: shuffle — ShuffleQueue permutation completeness & flush arbitration.
//
// Paper §4.3: the shuffler must release every buffered item exactly once
// (no request lost, none duplicated — a dropped or replayed item breaks the
// proxy's request/response bijection) and must only flush when the batch
// reached S (full unlinkability set) or the delay bound fired (bounded
// latency). The queue is the TYPED batch buffer the proxy instantiates with
// pending-request structs: the model drives ShuffleQueue<int> through the
// batch sink, exactly the release interface the one-ecall-per-flush proxy
// uses. The sink checks every FlushInfo it receives:
//   * every add()ed item is delivered by the sink exactly once (checked
//     after destruction);
//   * a batch is non-empty, holds at most S items, and its span agrees with
//     FlushInfo::batch_size;
//   * a size-triggered flush carries exactly S items;
//   * a timer-triggered flush never fires before the deadline of the arming
//     it flushes — the pre-fix timer waited on a stale deadline snapshot and
//     could flush a successor batch early (tools/traces/shuffle_stale_deadline.txt).
//
// Shape: S = 2, two producers (2-producer/1-flush: the queue's own timer
// thread is the single flusher; the destructor's flush drains leftovers).
// det::advance_time() between producer-1's adds separates the two arming
// deadlines on the virtual clock, which is what makes the stale-deadline
// arbitration observable.
// ---------------------------------------------------------------------------

#ifdef PPROX_CHECK_SELFTEST
// Pre-fix ShuffleQueue<int>, reduced to its flush arbitration. The timer
// hands wait_until() one snapshot of deadline_, and a size flush disarms
// without waking it: when a later add() re-arms while the timer is parked,
// the timer still times out at the OLD (earlier) deadline and flushes the
// successor batch before its delay bound.
class StaleDeadlineShuffle {
 public:
  StaleDeadlineShuffle(int size, std::chrono::milliseconds timeout,
                       ShuffleQueue<int>::BatchSink sink)
      : size_(size), timeout_(timeout), sink_(std::move(sink)) {
    timer_ = DetThread([this] { timer_loop(); }, "shuffle-timer");
  }

  ~StaleDeadlineShuffle() {
    {
      LockGuard lock(mutex_);
      stopping_ = true;
      cv_.notify_all();
    }
    timer_.join();
    LockGuard lock(mutex_);
    if (!buffer_.empty()) {
      sink_(std::span<int>(buffer_),
            FlushInfo{FlushReason::kExplicit, buffer_.size(), deadline_,
                      SteadyClock::now()});
    }
  }

  void add(int item) {
    std::vector<int> batch;
    FlushInfo info{FlushReason::kSize, 0, {}, {}};
    {
      LockGuard lock(mutex_);
      buffer_.push_back(item);
      if (static_cast<int>(buffer_.size()) >= size_) {
        batch.swap(buffer_);
        deadline_armed_ = false;
        info = FlushInfo{FlushReason::kSize, batch.size(), deadline_,
                         SteadyClock::now()};
      } else if (buffer_.size() == 1) {
        deadline_ = SteadyClock::now() + timeout_;
        deadline_armed_ = true;
        cv_.notify_all();
      }
    }
    if (!batch.empty()) sink_(std::span<int>(batch), info);
  }

 private:
  void timer_loop() {
    UniqueLock lock(mutex_);
    while (!stopping_) {
      if (!deadline_armed_) {
        cv_.wait(lock, [this] { return stopping_ || deadline_armed_; });
        continue;
      }
      if (cv_.wait_until(lock, deadline_, [this] {
            return stopping_ || !deadline_armed_;
          })) {
        continue;  // re-armed, flushed by size, or stopping
      }
      std::vector<int> batch;
      batch.swap(buffer_);
      deadline_armed_ = false;
      const FlushInfo info{FlushReason::kTimer, batch.size(), deadline_,
                           SteadyClock::now()};
      {
        ScopedUnlock unlocked(lock);
        if (!batch.empty()) sink_(std::span<int>(batch), info);
      }
    }
  }

  const int size_;
  const std::chrono::milliseconds timeout_;
  const ShuffleQueue<int>::BatchSink sink_;
  Mutex mutex_;
  CondVar cv_;
  std::vector<int> buffer_;
  SteadyClock::time_point deadline_{};
  bool deadline_armed_ = false;
  bool stopping_ = false;
  DetThread timer_;
};
#endif  // PPROX_CHECK_SELFTEST

template <typename Queue>  // ShuffleQueue<int>, or StaleDeadlineShuffle
void model_shuffle() {
  int released[3] = {0, 0, 0};
  {
    Queue queue(2, std::chrono::milliseconds(50),
                [&](std::span<int> batch, const FlushInfo& info) {
                  det::model_check(!batch.empty(),
                                   "batch sink invoked for an empty batch");
                  det::model_check(
                      batch.size() == info.batch_size,
                      "batch sink span disagrees with FlushInfo::batch_size");
                  det::model_check(info.batch_size <= 2,
                                   "flush released more than S items");
                  if (info.reason == FlushReason::kSize) {
                    det::model_check(
                        info.batch_size == 2,
                        "size-triggered flush with fewer than S items");
                  }
                  if (info.reason == FlushReason::kTimer) {
                    det::model_check(info.now >= info.deadline,
                                     "timer flush before the armed deadline "
                                     "(stale-deadline arbitration)");
                  }
                  for (const int item : batch) ++released[item];
                });
    DetThread producer1(
        [&] {
          queue.add(0);
          // Let virtual time pass so a second arming gets a later deadline.
          det::advance_time(10);
          queue.add(2);
        },
        "producer-1");
    DetThread producer2([&] { queue.add(1); }, "producer-2");
    producer1.join();
    producer2.join();
  }  // destructor: stop the timer, flush leftovers
  for (int i = 0; i < 3; ++i) {
    det::model_check(released[i] == 1,
                     "shuffle item lost or duplicated (released != 1)");
  }
}

// ---------------------------------------------------------------------------
// Model: pool — ThreadPool must not lose accepted tasks on shutdown.
//
// The pool is the in-enclave data-processing stage (§5); a task accepted by
// submit() carries a client request, so "accepted but never executed" is a
// silently dropped request. A worker may only leave once shutdown has begun
// AND the ring is empty: one that leaves on the stop flag alone strands
// the tasks still queued (tools/traces/pool_lost_task.txt). Invariants:
//   * submit() returning true implies the task ran by the time shutdown()
//     and the submitter both completed;
//   * submit() after shutdown() returns false.
// ---------------------------------------------------------------------------

#ifdef PPROX_CHECK_SELFTEST
// ThreadPool with one planted bug: its worker leaves as soon as it sees
// stopping_, even while accepted tasks are still in the ring, so a task
// submitted just before shutdown() is accepted but never runs.
class LostTaskPool {
 public:
  LostTaskPool(std::size_t num_threads, std::size_t queue_capacity)
      : ring_(queue_capacity) {
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back(
          DetThread([this] { worker_loop(); }, "pool-worker"));
    }
  }

  ~LostTaskPool() { shutdown(); }

  bool submit(std::function<void()> task) {
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

  void shutdown() {
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
  void worker_loop() {
    while (true) {
      std::function<void()> task;
      {
        UniqueLock lock(mutex_);
        not_empty_.wait(lock, [this] { return stopping_ || size_ > 0; });
        if (stopping_) return;  // the bug: the ring may still hold tasks
        task = std::exchange(ring_[head_], nullptr);
        head_ = (head_ + 1) % ring_.size();
        --size_;
      }
      not_full_.notify_one();
      task();
    }
  }

  Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::vector<std::function<void()>> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool stopping_ = false;
  std::vector<DetThread> workers_;
};
#endif  // PPROX_CHECK_SELFTEST

template <typename Pool>  // ThreadPool, or LostTaskPool
void model_pool() {
  int executed = 0;  // only touched by pool-managed threads; read after joins
  bool accepted = false;
  {
    Pool pool(1, 2);
    DetThread submitter(
        [&] { accepted = pool.submit([&] { ++executed; }); }, "submitter");
    pool.shutdown();
    submitter.join();
    det::model_check(!pool.submit([] {}),
                     "submit() accepted a task after shutdown()");
    if (accepted) {
      det::model_check(executed == 1,
                       "accepted task lost on shutdown (submitted but never ran)");
    }
  }
  if (accepted) {
    det::model_check(executed == 1, "accepted task ran more than once");
  }
}

// ---------------------------------------------------------------------------
// Model: rotation — no stale-key pseudonymization, no use-after-rotate.
//
// Miniature of Deployment::rotate (pprox/deployment.cpp). The real path
// generates RSA keys (slow, and rejection sampling makes the op count
// schedule-dependent), so the model keeps only the schedule-relevant
// skeleton: proxies pseudonymize rows under the current key epoch; the
// rotator re-encrypts the store to the next epoch, retires the old key and
// rebuilds the serving stack. Invariants (paper §6: rotation must leave no
// row recoverable with a breached key):
//   * no proxy ever pseudonymizes with a retired key (use-after-rotate);
//   * after rotation, every stored row is under the store's epoch — a row
//     under a retired epoch is exactly the stale-key leak the pre-fix
//     rotate-store-then-tear-down ordering allowed
//     (tools/traces/rotation_stale_key.txt).
//
// PPROX_CHECK_SELFTEST swaps the rotator to the pre-fix ordering (rotate
// store and retire key BEFORE quiescing the serving stack), which the
// explorer must catch.
// ---------------------------------------------------------------------------

void model_rotation() {
  struct MiniStore {
    Mutex mu;
    std::vector<int> row_epochs PPROX_GUARDED_BY(mu);  // key epoch per row
    int store_epoch PPROX_GUARDED_BY(mu) = 0;
  };
  MiniStore store;
  Atomic<int> key_epoch{0};
  Atomic<bool> key0_alive{true};
  Mutex quiesce_mu;
  CondVar quiesce_cv;
  bool down = false;     // serving stack torn down   (guarded by quiesce_mu)
  int in_flight = 0;     // admitted proxy requests   (guarded by quiesce_mu)

  // One in-flight recommendation request on a proxy instance: admission
  // (torn-down stack answers 503 instead), pseudonymize under the current
  // key epoch, append to the store, complete.
  auto proxy_request = [&] {
    {
      LockGuard lock(quiesce_mu);
      if (down) return;  // 503: backend gone
      ++in_flight;
    }
    const int epoch = key_epoch.load(std::memory_order_acquire);
    {
      LockGuard lock(store.mu);
      det::model_check(
          !(epoch == 0 && !key0_alive.load(std::memory_order_acquire)),
          "use-after-rotate: pseudonymizing with a retired key");
      store.row_epochs.push_back(epoch);
    }
    {
      LockGuard lock(quiesce_mu);
      if (--in_flight == 0) quiesce_cv.notify_all();
    }
  };

  auto rotate_store = [&] {
    LockGuard lock(store.mu);
    for (int& row : store.row_epochs) row = 1;
    store.store_epoch = 1;
  };

#ifdef PPROX_CHECK_SELFTEST
  // Pre-fix Deployment::rotate ordering: rotate the store and retire the
  // old key while the old serving stack is still live. An in-flight request
  // that read epoch 0 before the bump lands a stale-key row in the rotated
  // store — the bug the fixed ordering below eliminates.
  auto rotator = [&] {
    rotate_store();
    key0_alive.store(false, std::memory_order_release);
    key_epoch.store(1, std::memory_order_release);
    {
      UniqueLock lock(quiesce_mu);
      down = true;
      quiesce_cv.wait(lock, [&] { return in_flight == 0; });
      down = false;  // rebuild under the new epoch
    }
  };
#else
  // Fixed ordering (deployment.cpp): tear down & quiesce the serving stack
  // FIRST, then rotate store + keys, then rebuild.
  auto rotator = [&] {
    {
      UniqueLock lock(quiesce_mu);
      down = true;
      quiesce_cv.wait(lock, [&] { return in_flight == 0; });
    }
    rotate_store();
    key0_alive.store(false, std::memory_order_release);
    key_epoch.store(1, std::memory_order_release);
    {
      LockGuard lock(quiesce_mu);
      down = false;  // rebuild: serving resumes under the new epoch
    }
  };
#endif

  DetThread proxy1(proxy_request, "proxy-1");
  DetThread proxy2(proxy_request, "proxy-2");
  DetThread rot(rotator, "rotator");
  proxy1.join();
  proxy2.join();
  rot.join();

  LockGuard lock(store.mu);
  for (int row : store.row_epochs) {
    det::model_check(
        row == store.store_epoch,
        "stale-key row: pseudonym under a retired epoch survived rotation");
  }
}

// ---------------------------------------------------------------------------
// Model: lockorder — two-mutex acquisition-order discipline.
//
// The dynamic twin of pprox_lint --locks' PPROX-LOCK-ORDER rule (DESIGN.md
// §12.3): the static pass proves the *absence* of cycles in the global
// lock-order graph; this model demonstrates the *presence* of the deadlock
// a cycle implies, so the two tools cross-validate. Thread-1 always takes
// mu_a then mu_b. In the shipped build thread-2 follows the same global
// order (a then b) and bounded DFS explores every interleaving without a
// deadlock. Under -DPPROX_CHECK_SELFTEST thread-2 inverts the order (b then
// a) — exactly the shape the analyzer keys as
// "lock-order|...mu_a...->...mu_b...->...mu_a..." — and DFS must find the
// interleaving where each thread holds one mutex and parks on the other,
// reported by the scheduler's deadlock detector with a replayable trace.
// ---------------------------------------------------------------------------

void model_lockorder() {
#ifdef PPROX_CHECK_SELFTEST
  // Printed once so the deadlock trace can be matched back to the static
  // analyzer's finding format.
  static const bool banner = [] {
    std::printf(
        "lockorder selftest: thread-2 acquires mu_b -> mu_a against "
        "thread-1's mu_a -> mu_b; pprox_lint --locks reports this shape as "
        "PPROX-LOCK-ORDER (key lock-order|mu_a->mu_b->mu_a) with both "
        "acquisition chains\n");
    // The deadlock path ends in std::_Exit (det_explorer.cpp), which does
    // not flush stdio: flush now or the banner is lost exactly when it matters.
    std::fflush(stdout);
    return true;
  }();
  (void)banner;
#endif
  Mutex mu_a;
  Mutex mu_b;
  int shared = 0;
  DetThread t1(
      [&] {
        LockGuard a(mu_a);
        LockGuard b(mu_b);
        ++shared;
      },
      "locker-ab");
  DetThread t2(
      [&] {
#ifdef PPROX_CHECK_SELFTEST
        // Pre-fix shape: inverted order deadlocks when t1 holds mu_a and
        // this thread holds mu_b.
        LockGuard b(mu_b);
        LockGuard a(mu_a);
#else
        // Fixed shape: the single global order mu_a -> mu_b.
        LockGuard a(mu_a);
        LockGuard b(mu_b);
#endif
        ++shared;
      },
      "locker-2");
  t1.join();
  t2.join();
  det::model_check(shared == 2, "both critical sections must run");
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

struct ModelEntry {
  const char* name;
  const char* summary;
  void (*body)();
};

#ifdef PPROX_CHECK_SELFTEST
using ShuffleSubject = StaleDeadlineShuffle;
using PoolSubject = LostTaskPool;
#else
using ShuffleSubject = ShuffleQueue<int>;
using PoolSubject = pprox::concurrent::ThreadPool;
#endif

constexpr ModelEntry kModels[] = {
    {"shuffle",
     "ShuffleQueue: no item lost/duplicated; flush at exactly S or timer",
     &model_shuffle<ShuffleSubject>},
    {"pool", "ThreadPool: no accepted task lost across shutdown()",
     &model_pool<PoolSubject>},
    {"rotation",
     "Key rotation: no stale-key pseudonymization, no use-after-rotate",
     &model_rotation},
    {"lockorder",
     "Two-mutex global order: inverted acquisition (selftest) deadlocks",
     &model_lockorder},
};

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: pprox_check --model NAME [options]\n"
      "       pprox_check --list-models\n"
      "\n"
      "options:\n"
      "  --model NAME            model to explore (see --list-models)\n"
      "  --mode dfs|pct          bounded exhaustive DFS (default) or PCT\n"
      "                          randomised-priority sampling\n"
      "  --preemption-bound N    DFS: max preemptions per execution (default 2)\n"
      "  --no-sleep-sets         DFS: disable sleep-set pruning\n"
      "  --max-steps N           truncate executions longer than N steps\n"
      "  --max-execs N           stop after N executions (0 = unbounded)\n"
      "  --seed N                PCT: random seed (default 1)\n"
      "  --pct-iters N           PCT: number of executions (default 500)\n"
      "  --pct-depth N           PCT: bug depth d (d-1 priority change points)\n"
      "  --replay T0,T1,...      replay this exact schedule first, then\n"
      "                          fall back to the selected mode\n"
      "  -v, --verbose           per-execution progress\n"
      "\n"
      "exit status: 0 all explored schedules pass; 1 invariant violation,\n"
      "deadlock or nontermination (trace printed); 2 usage error.\n");
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  det::Options options;
  const ModelEntry* model = nullptr;
  bool mode_set = false;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "pprox_check: %s needs a value\n", argv[i]);
      std::exit(2);
    }
    return argv[i + 1];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-models") {
      std::printf("models:\n");
      for (const ModelEntry& entry : kModels) {
        std::printf("  %-9s %s\n", entry.name, entry.summary);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--model") {
      const char* name = need_value(i++);
      for (const ModelEntry& entry : kModels) {
        if (std::strcmp(entry.name, name) == 0) model = &entry;
      }
      if (model == nullptr) {
        std::fprintf(stderr, "pprox_check: unknown model '%s'\n", name);
        return 2;
      }
    } else if (arg == "--mode") {
      const std::string mode = need_value(i++);
      if (mode == "dfs") {
        options.mode = det::Options::Mode::kDfs;
      } else if (mode == "pct") {
        options.mode = det::Options::Mode::kPct;
      } else {
        std::fprintf(stderr, "pprox_check: unknown mode '%s'\n", mode.c_str());
        return 2;
      }
      mode_set = true;
    } else if (arg == "--preemption-bound") {
      std::uint64_t v;
      if (!parse_u64(need_value(i++), &v)) return 2;
      options.preemption_bound = static_cast<int>(v);
    } else if (arg == "--no-sleep-sets") {
      options.sleep_sets = false;
    } else if (arg == "--max-steps") {
      if (!parse_u64(need_value(i++), &options.max_steps)) return 2;
    } else if (arg == "--max-execs") {
      if (!parse_u64(need_value(i++), &options.max_execs)) return 2;
    } else if (arg == "--seed") {
      if (!parse_u64(need_value(i++), &options.seed)) return 2;
    } else if (arg == "--pct-iters") {
      std::uint64_t v;
      if (!parse_u64(need_value(i++), &v)) return 2;
      options.pct_iters = static_cast<int>(v);
    } else if (arg == "--pct-depth") {
      std::uint64_t v;
      if (!parse_u64(need_value(i++), &v)) return 2;
      options.pct_depth = static_cast<int>(v);
    } else if (arg == "--replay") {
      const char* spec = need_value(i++);
      std::uint64_t v = 0;
      const char* p = spec;
      while (*p != '\0') {
        char* end = nullptr;
        v = std::strtoull(p, &end, 10);
        if (end == p) {
          std::fprintf(stderr, "pprox_check: bad --replay schedule '%s'\n",
                       spec);
          return 2;
        }
        options.replay.push_back(static_cast<int>(v));
        p = (*end == ',') ? end + 1 : end;
        if (*end != '\0' && *end != ',') {
          std::fprintf(stderr, "pprox_check: bad --replay schedule '%s'\n",
                       spec);
          return 2;
        }
      }
    } else if (arg == "-v" || arg == "--verbose") {
      options.verbose = true;
    } else {
      std::fprintf(stderr, "pprox_check: unknown option '%s'\n", arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }

  if (model == nullptr) {
    print_usage(stderr);
    return 2;
  }
  options.model_name = model->name;
  if (!options.replay.empty() && !mode_set) {
    // A bare --replay means "just run this one schedule".
    options.max_execs = 1;
  }

#ifdef PPROX_CHECK_SELFTEST
  std::printf("pprox_check: SELFTEST build — models run on pre-fix "
              "subjects, every model is expected to FAIL\n");
#endif

  const det::Report report = det::explore(options, model->body);
  std::printf(
      "pprox_check: model=%s mode=%s executions=%llu steps=%llu "
      "truncated=%llu exhaustive=%s\n",
      model->name, options.mode == det::Options::Mode::kDfs ? "dfs" : "pct",
      static_cast<unsigned long long>(report.executions),
      static_cast<unsigned long long>(report.total_steps),
      static_cast<unsigned long long>(report.truncated),
      report.exhaustive ? "yes" : "no");
  std::printf("PASS: all explored interleavings satisfy the %s invariants\n",
              model->name);
  return 0;
}
