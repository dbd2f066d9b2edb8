// pprox::det — the cooperative deterministic scheduler behind the sync
// abstraction (common/sync.hpp). Defines the schedule-point hooks that the
// primitives call under -DPPROX_MODEL_CHECK, and the explorer API in
// det_explorer.hpp. Only model-check trees build it (tools/CMakeLists.txt);
// normal builds discard every hook call and link none of this.
//
// Execution model: managed threads are real OS threads, but exactly one of
// them (or the controller inside explore()) runs at a time, handed a "token"
// through one global mutex/condvar pair. Every sync operation announces
// itself and parks BEFORE it takes effect; the controller inspects all
// pending operations, computes the enabled set, and picks the next thread
// according to the active strategy:
//
//   * DFS — depth-first over the schedule tree with a preemption bound and
//     sleep-set pruning; each finished execution backtracks to the deepest
//     node with an unexplored alternative and replays that prefix.
//   * PCT — randomised priorities with priority-change points (Burckhardt et
//     al.), for state spaces too big to enumerate.
//
// Time is virtual: timed condition-variable waits are nondeterministic
// "timeout fires now" choices that advance the logical clock to the
// deadline, so timer-vs-size races (the ShuffleQueue flush arbitration) are
// explored without sleeping.
#include "det_explorer.hpp"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rand.hpp"

static_assert(pprox::det::kModelCheck,
              "the explorer needs the scheduler records of a "
              "-DPPROX_MODEL_CHECK build");

namespace pprox::det {

namespace {

constexpr int kController = -1;

// Virtual clock start (milliseconds), reset for each execution.
constexpr std::uint64_t kVirtualEpochMs = 1'000'000;

enum class TState : std::uint8_t {
  kNew,         // created, waiting to be scheduled for the first time
  kRunning,     // owns the token, executing user code
  kReady,       // parked at an always-enabled op (unlock/notify/atomic/...)
  kWantMutex,   // parked at lock(); enabled iff the mutex is free
  kCvBlocked,   // parked in a cv wait; enabled iff notified or timed out
  kWantJoin,    // parked at join(); enabled iff the target finished
  kFinished,
};

// Signature of a pending operation for trace printing and the independence
// relation. obj2 is the mutex side of a cv wait (a wait touches both).
struct OpSig {
  OpKind kind = OpKind::kThreadStart;
  const ObjRecord* obj = nullptr;
  const ObjRecord* obj2 = nullptr;
  SourceLoc loc;
};

struct ThreadRec {
  int id = 0;
  std::string name;
  TState state = TState::kNew;
  OpSig pending;
  int join_target = -1;
  bool timed = false;
  std::uint64_t deadline_ms = 0;
  bool woke_by_timeout = false;
  // Synthetic object identity for create/join/exit dependence.
  ObjRecord self_obj;
};

struct TraceEntry {
  std::uint64_t step;
  int tid;
  OpSig sig;
  std::string note;
};

struct Node {
  int chosen = -1;
  std::vector<int> alts;          // unexplored non-sleeping alternatives
  std::vector<int> explored;      // choices already fully explored here
  std::vector<int> sleep_entry;   // sleep set on entry to this node
  int preemptions = 0;            // preemption count after `chosen`
  OpSig sig;                      // op actually executed for `chosen`
};

struct Global {
  std::mutex m;
  std::condition_variable cv;
  int running = kController;

  std::vector<std::unique_ptr<ThreadRec>> threads;
  std::uint64_t next_obj_id = 1;
  std::uint64_t epoch = 0;  // execution counter for ObjRecord resets
  std::uint64_t now_ms = kVirtualEpochMs;
  std::uint64_t step = 0;
  std::vector<int> schedule;
  std::vector<TraceEntry> trace;

  const Options* opts = nullptr;
  std::vector<Node> stack;  // DFS schedule tree path
  Report report;
  bool truncating = false;  // past max_steps: greedy finish, record nothing

  // PCT state.
  SplitMix64 pct_rng{1};
  std::vector<std::uint64_t> pct_priority;  // by thread id
  std::vector<std::uint64_t> pct_change_points;
  std::uint64_t pct_next_low = 0;  // descending counter for lowered priorities
  std::uint64_t pct_est_len = 256;
};

Global g;

thread_local ThreadRec* t_self = nullptr;

void ensure_obj(ObjRecord* rec) {
  if (rec->epoch != g.epoch) {
    rec->epoch = g.epoch;
    rec->id = g.next_obj_id++;
    rec->owner = -1;
    rec->tokens = 0;
  }
}

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kMutexLock: return "mutex-lock";
    case OpKind::kMutexUnlock: return "mutex-unlock";
    case OpKind::kCvWait: return "cv-wait";
    case OpKind::kCvWake: return "cv-wake";
    case OpKind::kCvNotifyOne: return "cv-notify-one";
    case OpKind::kCvNotifyAll: return "cv-notify-all";
    case OpKind::kAtomicLoad: return "atomic-load";
    case OpKind::kAtomicStore: return "atomic-store";
    case OpKind::kAtomicRmw: return "atomic-rmw";
    case OpKind::kThreadCreate: return "thread-create";
    case OpKind::kThreadStart: return "thread-start";
    case OpKind::kThreadJoin: return "thread-join";
    case OpKind::kThreadExit: return "thread-exit";
    case OpKind::kTimeAdvance: return "time-advance";
  }
  return "?";
}

const char* state_name(TState s) {
  switch (s) {
    case TState::kNew: return "new";
    case TState::kRunning: return "running";
    case TState::kReady: return "ready";
    case TState::kWantMutex: return "lock-wait";
    case TState::kCvBlocked: return "cv-wait";
    case TState::kWantJoin: return "join-wait";
    case TState::kFinished: return "finished";
  }
  return "?";
}

const char* basename_of(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

std::string replay_string() {
  std::ostringstream out;
  for (std::size_t i = 0; i < g.schedule.size(); ++i) {
    if (i > 0) out << ',';
    out << g.schedule[i];
  }
  return out.str();
}

// Requires g.m. Prints the numbered trace of the current execution plus the
// schedule needed to replay it, then terminates the process.
[[noreturn]] void fail_locked(const std::string& kind, const std::string& msg) {
  std::fprintf(stderr, "\n=== pprox_check: %s ===\n", kind.c_str());
  std::fprintf(stderr, "model: %s  execution: %llu  step: %llu\n",
               g.opts != nullptr ? g.opts->model_name : "?",
               static_cast<unsigned long long>(g.report.executions + 1),
               static_cast<unsigned long long>(g.step));
  std::fprintf(stderr, "%s\n", msg.c_str());
  std::fprintf(stderr, "--- interleaving trace (%zu steps) ---\n",
               g.trace.size());
  const std::size_t kMaxPrinted = 400;
  const std::size_t start =
      g.trace.size() > kMaxPrinted ? g.trace.size() - kMaxPrinted : 0;
  if (start > 0) std::fprintf(stderr, "  ... %zu earlier steps elided ...\n", start);
  for (std::size_t i = start; i < g.trace.size(); ++i) {
    const TraceEntry& e = g.trace[i];
    const char* name = "?";
    if (e.tid >= 0 && e.tid < static_cast<int>(g.threads.size())) {
      name = g.threads[static_cast<std::size_t>(e.tid)]->name.c_str();
    }
    std::string obj;
    if (e.sig.obj != nullptr) {
      obj = "obj#" + std::to_string(e.sig.obj->id);
      if (e.sig.obj2 != nullptr) {
        obj += "/obj#" + std::to_string(e.sig.obj2->id);
      }
    }
    std::fprintf(stderr, "  #%-5llu T%d(%s) %-14s %-14s %s:%u%s%s\n",
                 static_cast<unsigned long long>(e.step), e.tid, name,
                 op_name(e.sig.kind), obj.c_str(), basename_of(e.sig.loc.file),
                 e.sig.loc.line, e.note.empty() ? "" : "  ", e.note.c_str());
  }
  std::fprintf(stderr, "--- thread states ---\n");
  for (const auto& t : g.threads) {
    std::fprintf(stderr, "  T%d(%s): %s\n", t->id, t->name.c_str(),
                 state_name(t->state));
  }
  std::fprintf(stderr, "--- replay ---\n");
  std::fprintf(stderr, "  pprox_check --model %s --replay %s\n",
               g.opts != nullptr ? g.opts->model_name : "?",
               replay_string().c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

// Hand the token to the controller and wait until it is handed back to us.
// Requires g.m (via lk).
void park(std::unique_lock<std::mutex>& lk) {
  g.running = kController;
  g.cv.notify_all();
  ThreadRec* self = t_self;
  g.cv.wait(lk, [self] { return g.running == self->id; });
}

// Announce `sig` as this thread's next operation with scheduler state
// `state`, park until the controller grants it, then mark running and record
// the trace entry. The caller applies the op's logical effect after this
// returns (still under lk, still holding the token).
void announce_and_wait(std::unique_lock<std::mutex>& lk, TState state,
                       const OpSig& sig, const char* note = "") {
  t_self->pending = sig;
  t_self->state = state;
  park(lk);
  t_self->state = TState::kRunning;
  g.trace.push_back(TraceEntry{g.step, t_self->id, sig, note});
}

bool op_touches(const OpSig& sig, const ObjRecord* obj) {
  return obj != nullptr && (sig.obj == obj || sig.obj2 == obj);
}

// Conservative independence: two pending ops commute iff their object sets
// are disjoint, or both are plain atomic loads of the same object. Null
// objects (thread create, time advance) are treated as dependent with
// everything.
bool independent(const OpSig& a, const OpSig& b) {
  if (a.obj == nullptr || b.obj == nullptr) return false;
  const bool overlap = op_touches(a, b.obj) || op_touches(a, b.obj2) ||
                       op_touches(b, a.obj) || op_touches(b, a.obj2);
  if (!overlap) return true;
  return a.obj == b.obj && a.obj2 == nullptr && b.obj2 == nullptr &&
         a.kind == OpKind::kAtomicLoad && b.kind == OpKind::kAtomicLoad;
}

bool mutex_free(const ObjRecord* mu) { return mu->owner == -1; }

// Is thread `t` runnable right now? Requires g.m.
bool enabled(const ThreadRec& t) {
  switch (t.state) {
    case TState::kNew:
    case TState::kReady:
      return true;
    case TState::kWantMutex:
      return mutex_free(t.pending.obj);
    case TState::kCvBlocked:
      // Wake needs a notify token or an armed timeout, plus the mutex free
      // to reacquire (collapsing wake+relock into one transition: the window
      // between them has no observable effects).
      return (t.pending.obj->tokens > 0 || t.timed) &&
             mutex_free(t.pending.obj2);
    case TState::kWantJoin:
      return g.threads[static_cast<std::size_t>(t.join_target)]->state ==
             TState::kFinished;
    case TState::kRunning:
    case TState::kFinished:
      return false;
  }
  return false;
}

std::vector<int> enabled_set() {
  std::vector<int> out;
  for (const auto& t : g.threads) {
    if (enabled(*t)) out.push_back(t->id);
  }
  return out;
}

bool all_finished() {
  for (const auto& t : g.threads) {
    if (t->state != TState::kFinished) return false;
  }
  return true;
}

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// Pick the next thread by DFS. Creates a new Node past the replayed prefix.
// Requires g.m.
int dfs_pick(const std::vector<int>& en, int prev_tid) {
  const std::size_t depth = static_cast<std::size_t>(g.step);
  if (depth < g.stack.size()) {
    // Replaying the prefix of the previous execution up to the backtrack
    // point. The state must be identical, so the recorded choice is enabled.
    Node& n = g.stack[depth];
    if (!contains(en, n.chosen)) {
      fail_locked("SCHEDULER ERROR",
                  "nondeterministic model: replayed choice T" +
                      std::to_string(n.chosen) +
                      " is not enabled (model must not depend on wall time, "
                      "addresses, or unseeded randomness)");
    }
    const int prev_preempt =
        depth > 0 ? g.stack[depth - 1].preemptions : 0;
    n.preemptions = prev_preempt + (n.chosen != prev_tid &&
                                            contains(en, prev_tid)
                                        ? 1
                                        : 0);
    return n.chosen;
  }

  const int prev_preempt = depth > 0 ? g.stack[depth - 1].preemptions : 0;
  const bool prev_enabled = contains(en, prev_tid);

  // Candidate order: continue the current thread first (a non-preemptive
  // choice), then the rest by id. When the preemption budget is spent and
  // the current thread can still run, it is the only candidate.
  std::vector<int> candidates;
  if (prev_enabled) candidates.push_back(prev_tid);
  if (!prev_enabled || prev_preempt < g.opts->preemption_bound) {
    for (int tid : en) {
      if (tid != prev_tid) candidates.push_back(tid);
    }
  }

  // Sleep set on entry: threads whose pending op was fully explored at an
  // ancestor and commutes with everything executed since.
  std::vector<int> sleep_entry;
  if (g.opts->sleep_sets && depth > 0) {
    const Node& parent = g.stack[depth - 1];
    std::vector<int> candidates_sleep = parent.sleep_entry;
    for (int tid : parent.explored) candidates_sleep.push_back(tid);
    for (int tid : candidates_sleep) {
      if (tid == parent.chosen || !contains(en, tid)) continue;
      const ThreadRec& t = *g.threads[static_cast<std::size_t>(tid)];
      if (independent(t.pending, parent.sig) && !contains(sleep_entry, tid)) {
        sleep_entry.push_back(tid);
      }
    }
  }

  std::vector<int> awake;
  for (int tid : candidates) {
    if (!contains(sleep_entry, tid)) awake.push_back(tid);
  }
  // All candidates asleep: this state is covered by a sibling branch, but we
  // still have to finish the execution — run the first candidate and record
  // no alternatives so nothing is explored twice from here.
  if (awake.empty()) awake.push_back(candidates.front());

  Node n;
  n.chosen = awake.front();
  n.alts.assign(awake.begin() + 1, awake.end());
  n.sleep_entry = std::move(sleep_entry);
  n.preemptions =
      prev_preempt + (n.chosen != prev_tid && prev_enabled ? 1 : 0);
  if (!g.truncating) {
    g.stack.push_back(std::move(n));
    return g.stack.back().chosen;
  }
  return n.chosen;
}

// Pick the next thread by PCT: highest priority among enabled, with
// priority-change points lowering the front-runner.
int pct_pick(const std::vector<int>& en) {
  for (std::uint64_t cp : g.pct_change_points) {
    if (cp == g.step && !en.empty()) {
      // Lower the priority of the currently preferred thread.
      int best = en.front();
      for (int tid : en) {
        if (g.pct_priority[static_cast<std::size_t>(tid)] >
            g.pct_priority[static_cast<std::size_t>(best)]) {
          best = tid;
        }
      }
      g.pct_priority[static_cast<std::size_t>(best)] = g.pct_next_low--;
    }
  }
  int best = en.front();
  for (int tid : en) {
    if (g.pct_priority[static_cast<std::size_t>(tid)] >
        g.pct_priority[static_cast<std::size_t>(best)]) {
      best = tid;
    }
  }
  return best;
}

// The controller: schedules managed threads until the execution finishes.
// Returns normally when all threads have exited. Requires the caller to hold
// no locks; runs on the explore() thread.
void run_execution() {
  std::unique_lock<std::mutex> lk(g.m);
  int prev_tid = 0;  // root thread starts each execution
  for (;;) {
    g.cv.wait(lk, [] { return g.running == kController; });
    if (all_finished()) return;

    std::vector<int> en = enabled_set();
    if (en.empty()) {
      fail_locked("DEADLOCK",
                  "no thread is runnable (waiting threads below); a cv wait "
                  "without a matching notify, or a lock cycle");
    }

    if (g.step >= g.opts->max_steps && !g.truncating) {
      g.truncating = true;
      ++g.report.truncated;
    }
    if (g.step >= g.opts->max_steps * 4 + 1024) {
      fail_locked("NONTERMINATION",
                  "execution exceeded 4x max-steps; model has an unbounded "
                  "spin under this schedule");
    }

    int tid;
    const std::size_t depth = static_cast<std::size_t>(g.step);
    if (depth < g.opts->replay.size()) {
      tid = g.opts->replay[depth];
      if (!contains(en, tid)) {
        fail_locked("REPLAY DIVERGENCE",
                    "replayed schedule chose T" + std::to_string(tid) +
                        " which is not enabled at step " +
                        std::to_string(g.step));
      }
    } else if (!g.opts->replay.empty()) {
      // Past the recorded schedule: finish deterministically.
      tid = contains(en, prev_tid) ? prev_tid : en.front();
    } else if (g.opts->mode == Options::Mode::kPct) {
      tid = pct_pick(en);
    } else if (g.truncating) {
      tid = contains(en, prev_tid) ? prev_tid : en.front();
    } else {
      tid = dfs_pick(en, prev_tid);
    }

    ThreadRec& t = *g.threads[static_cast<std::size_t>(tid)];
    // Resolve the wake reason for a cv wait now, while the choice is made:
    // a pending notify token is consumed in preference to a timeout.
    if (t.state == TState::kCvBlocked) {
      ObjRecord* cv_obj = const_cast<ObjRecord*>(t.pending.obj);
      if (cv_obj->tokens > 0) {
        --cv_obj->tokens;
        t.woke_by_timeout = false;
      } else {
        t.woke_by_timeout = true;
        g.now_ms = std::max(g.now_ms, t.deadline_ms);
      }
    }
    if (!g.truncating && depth < g.stack.size()) {
      g.stack[depth].sig = t.pending;
    }
    g.schedule.push_back(tid);
    ++g.step;
    ++g.report.total_steps;
    prev_tid = tid;
    g.running = tid;
    g.cv.notify_all();
  }
}

// After a finished execution, advance the DFS frontier. Returns false when
// the bounded tree is exhausted.
bool dfs_backtrack() {
  while (!g.stack.empty()) {
    Node& n = g.stack.back();
    n.explored.push_back(n.chosen);
    if (!n.alts.empty()) {
      n.chosen = n.alts.front();
      n.alts.erase(n.alts.begin());
      return true;
    }
    g.stack.pop_back();
  }
  return false;
}

void reset_execution_state() {
  g.threads.clear();
  g.next_obj_id = 1;
  ++g.epoch;
  g.now_ms = kVirtualEpochMs;
  g.step = 0;
  g.schedule.clear();
  g.trace.clear();
  g.truncating = false;
}

}  // namespace

bool managed() noexcept { return t_self != nullptr; }

void mutex_lock(ObjRecord* mu, SourceLoc loc) {
  std::unique_lock<std::mutex> lk(g.m);
  ensure_obj(mu);
  announce_and_wait(lk, TState::kWantMutex,
                    OpSig{OpKind::kMutexLock, mu, nullptr, loc});
  mu->owner = t_self->id;
}

void mutex_unlock(ObjRecord* mu, SourceLoc loc) {
  std::unique_lock<std::mutex> lk(g.m);
  ensure_obj(mu);
  announce_and_wait(lk, TState::kReady,
                    OpSig{OpKind::kMutexUnlock, mu, nullptr, loc});
  mu->owner = -1;
}

bool cv_wait(ObjRecord* cv, ObjRecord* mu, bool timed, std::uint64_t deadline_ms,
             SourceLoc loc) {
  std::unique_lock<std::mutex> lk(g.m);
  ensure_obj(cv);
  ensure_obj(mu);
  // Schedule point 1: the wait entry (atomically releases the mutex).
  announce_and_wait(lk, TState::kReady, OpSig{OpKind::kCvWait, cv, mu, loc});
  mu->owner = -1;
  // Park as a waiter: woken by a notify token or (if timed) a timeout
  // choice, once the mutex is free to reacquire.
  t_self->timed = timed;
  t_self->deadline_ms = deadline_ms;
  t_self->pending = OpSig{OpKind::kCvWake, cv, mu, loc};
  t_self->state = TState::kCvBlocked;
  park(lk);
  t_self->state = TState::kRunning;
  t_self->timed = false;
  const bool notified = !t_self->woke_by_timeout;
  g.trace.push_back(TraceEntry{g.step, t_self->id,
                               OpSig{OpKind::kCvWake, cv, mu, loc},
                               notified ? "notified" : "timeout"});
  mu->owner = t_self->id;
  return notified;
}

void cv_notify(ObjRecord* cv, bool all, SourceLoc loc) {
  std::unique_lock<std::mutex> lk(g.m);
  ensure_obj(cv);
  announce_and_wait(
      lk, TState::kReady,
      OpSig{all ? OpKind::kCvNotifyAll : OpKind::kCvNotifyOne, cv, nullptr,
            loc});
  // Count waiters that have not yet been granted a token; notifies with no
  // waiter are lost, exactly like the real primitive.
  std::uint64_t waiters = 0;
  for (const auto& t : g.threads) {
    if (t->state == TState::kCvBlocked && t->pending.obj == cv) ++waiters;
  }
  if (all) {
    cv->tokens = waiters;
  } else if (cv->tokens < waiters) {
    ++cv->tokens;
  }
}

void atomic_op(const ObjRecord* obj, OpKind kind, SourceLoc loc) {
  std::unique_lock<std::mutex> lk(g.m);
  ensure_obj(const_cast<ObjRecord*>(obj));
  announce_and_wait(lk, TState::kReady, OpSig{kind, obj, nullptr, loc});
}

void thread_create(ThreadRecord* thread, const char* name, SourceLoc loc) {
  std::unique_lock<std::mutex> lk(g.m);
  announce_and_wait(lk, TState::kReady,
                    OpSig{OpKind::kThreadCreate, nullptr, nullptr, loc});
  const int id = static_cast<int>(g.threads.size());
  auto rec = std::make_unique<ThreadRec>();
  rec->id = id;
  rec->name = std::string(name) + "#" + std::to_string(id);
  rec->state = TState::kNew;
  rec->pending = OpSig{OpKind::kThreadStart, &rec->self_obj, nullptr, loc};
  ensure_obj(&rec->self_obj);
  g.threads.push_back(std::move(rec));
  if (g.opts != nullptr && g.opts->mode == Options::Mode::kPct) {
    while (g.pct_priority.size() <= static_cast<std::size_t>(id)) {
      g.pct_priority.push_back(0);
    }
    // High random priority band; change points lower into g.pct_next_low.
    g.pct_priority[static_cast<std::size_t>(id)] =
        (g.pct_rng.next_u64() | (1ull << 32));
  }
  thread->id = id;
}

void thread_start(ThreadRecord thread) {
  std::unique_lock<std::mutex> lk(g.m);
  ThreadRec* self = g.threads[static_cast<std::size_t>(thread.id)].get();
  t_self = self;
  g.cv.wait(lk, [self] { return g.running == self->id; });
  self->state = TState::kRunning;
  g.trace.push_back(TraceEntry{g.step, self->id, self->pending, ""});
}

void thread_exit(ThreadRecord thread) {
  std::unique_lock<std::mutex> lk(g.m);
  ThreadRec* self = g.threads[static_cast<std::size_t>(thread.id)].get();
  announce_and_wait(lk, TState::kReady,
                    OpSig{OpKind::kThreadExit, &self->self_obj, nullptr,
                          SourceLoc{"<thread-exit>", 0}});
  self->state = TState::kFinished;
  t_self = nullptr;
  // Hand the token back without parking: this OS thread is done.
  g.running = kController;
  g.cv.notify_all();
}

void thread_join(ThreadRecord thread, SourceLoc loc) {
  // A thread started by an unmanaged thread is no managed thread: joining it
  // is no schedule point.
  if (thread.id < 0) return;
  std::unique_lock<std::mutex> lk(g.m);
  ThreadRec* child = g.threads[static_cast<std::size_t>(thread.id)].get();
  t_self->join_target = thread.id;
  announce_and_wait(lk, TState::kWantJoin,
                    OpSig{OpKind::kThreadJoin, &child->self_obj, nullptr, loc});
  t_self->join_target = -1;
}

std::uint64_t now_ms() noexcept {
  std::unique_lock<std::mutex> lk(g.m);
  return g.now_ms;
}

void advance_time(std::uint64_t delta_ms, SourceLoc loc) {
  std::unique_lock<std::mutex> lk(g.m);
  announce_and_wait(lk, TState::kReady,
                    OpSig{OpKind::kTimeAdvance, nullptr, nullptr, loc},
                    ("+" + std::to_string(delta_ms) + "ms").c_str());
  g.now_ms += delta_ms;
}

void model_fail(const std::string& message) {
  std::unique_lock<std::mutex> lk(g.m);
  fail_locked("INVARIANT VIOLATION", message);
}

Report explore(const Options& options, const std::function<void()>& body) {
  g.opts = &options;
  g.report = Report{};
  g.stack.clear();

  const std::uint64_t max_execs =
      options.max_execs > 0
          ? options.max_execs
          : (options.mode == Options::Mode::kPct
                 ? static_cast<std::uint64_t>(options.pct_iters)
                 : ~0ull);

  bool more = true;
  while (more && g.report.executions < max_execs) {
    reset_execution_state();
    if (options.mode == Options::Mode::kPct) {
      g.pct_rng = SplitMix64(options.seed + g.report.executions * 0x9e3779b9ull);
      g.pct_priority.clear();
      g.pct_priority.push_back(g.pct_rng.next_u64() | (1ull << 32));
      g.pct_next_low = 1ull << 31;
      g.pct_change_points.clear();
      for (int i = 0; i + 1 < options.pct_depth; ++i) {
        g.pct_change_points.push_back(
            1 + g.pct_rng.next_u64() % std::max<std::uint64_t>(g.pct_est_len, 2));
      }
    }

    // Root managed thread.
    {
      std::unique_lock<std::mutex> lk(g.m);
      auto rec = std::make_unique<ThreadRec>();
      rec->id = 0;
      rec->name = "main";
      rec->state = TState::kNew;
      rec->pending =
          OpSig{OpKind::kThreadStart, &rec->self_obj, nullptr,
                SourceLoc{"<root>", 0}};
      ensure_obj(&rec->self_obj);
      g.threads.push_back(std::move(rec));
      g.running = kController;
    }
    std::thread root([&body] {
      thread_start(ThreadRecord{0});
      body();
      thread_exit(ThreadRecord{0});
    });

    run_execution();
    root.join();

    ++g.report.executions;
    g.pct_est_len = std::max<std::uint64_t>(g.step, 16);

    if (!options.replay.empty()) {
      more = false;  // a replay is a single execution
    } else if (options.mode == Options::Mode::kPct) {
      more = true;  // bounded by max_execs above
    } else {
      more = dfs_backtrack();
    }
  }

  g.report.exhaustive = options.mode == Options::Mode::kDfs &&
                        options.replay.empty() && !more &&
                        g.report.truncated == 0;
  g.opts = nullptr;
  return g.report;
}

}  // namespace pprox::det
