// pprox_lint --locks — interprocedural lock-discipline pass (DESIGN.md §12).
//
// Statically enforces the locking discipline the concurrency core depends
// on, reusing the shared call-graph front end (lint_callgraph.hpp) that the
// --hotpath pass builds on. The pass
//
//   1. replays every function body span against the sync.hpp vocabulary
//      (Mutex/SharedMutex declarations, LockGuard/UniqueLock/WriteLock/
//      ReadLock/SharedLock construction, ScopedUnlock, manual .lock()/
//      .unlock(), CondVar::wait*), tracking the *held-lock set* through the
//      body's block structure and recording acquire / blocking / ecall /
//      call events together with the locks held at each site;
//   2. resolves call events to scanned functions (same policy as --hotpath)
//      and propagates per-function summaries — "may block", "may cross the
//      enclave boundary", "may acquire lock L" — to a fixpoint, each with a
//      shortest witness chain;
//   3. builds a global lock-order graph (edge H -> L: L acquired while H is
//      held, directly or through a call chain) and reports every cycle as a
//      PPROX-LOCK-ORDER finding carrying the witness chain of each edge;
//   4. reports PPROX-LOCK-BLOCKING (a blocking leaf — sleep/join/syscall/
//      pool submit — reached while any lock is held; CondVar::wait on the
//      lock it releases is exempt), PPROX-LOCK-ECALL (a lock held across a
//      PPROX_ECALL_BOUNDARY function or an Enclave::ecall call),
//      PPROX-LOCK-MANUAL (bare .lock()/.unlock() outside common/sync.hpp —
//      invisible to RAII reasoning and to the pprox_check scheduler), and
//      PPROX-WAIT-NOPRED (CondVar::wait without a predicate — spurious
//      wakeups break the invariant the wait guards).
//
// Lock identity is resolved to qualified names: a locally declared mutex is
// "<function>::<name>", a member mutex is "<class>::<name>", and a dotted
// path ("server_->mu_") keeps its written spelling with "->" normalized to
// ".". Two instances of the same class collapse onto one name — which is
// why same-lock self-edges are excluded from the order graph (DESIGN.md
// §12.4 spells out this and the other soundness limits).
//
// Suppression (on the offending line, reason mandatory, same contract as
// --hotpath): aspects are order / blocking / ecall / manual / nopred:
//   stats_mu_.lock();  // PPROX-LOCKS-OK(manual): released across callback
// A bare suppression (no ": reason") is itself a finding and suppresses
// nothing. Baseline ratchet: --baseline FILE compares finding keys against
// tools/locks_baseline.json; only new keys fail. --baseline-write FILE
// regenerates the file, carrying over existing "why" justifications.
#include "lint_passes.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace locks {
namespace {

using cg::Finding;

// ---------------------------------------------------------------------------
// Aspects (the suppression vocabulary).
// ---------------------------------------------------------------------------

enum Aspect : unsigned {
  kOrder = 1u << 0,
  kBlocking = 1u << 1,
  kEcall = 1u << 2,
  kManual = 1u << 3,
  kNopred = 1u << 4,
};
constexpr unsigned kAllAspects = kOrder | kBlocking | kEcall | kManual |
                                 kNopred;

unsigned aspect_from_name(const std::string& name) {
  if (name == "order") return kOrder;
  if (name == "blocking") return kBlocking;
  if (name == "ecall") return kEcall;
  if (name == "manual") return kManual;
  if (name == "nopred") return kNopred;
  return 0;
}

// ---------------------------------------------------------------------------
// Vocabulary tables.
// ---------------------------------------------------------------------------

/// RAII guard types from common/sync.hpp whose construction acquires the
/// mutex passed as the first argument and releases it at scope end.
const std::set<std::string> kGuardTypeNames = {
    "LockGuard", "UniqueLock", "WriteLock", "ReadLock", "SharedLock"};

/// Mutex-flavored declarations establish lock identities; CondVar
/// declarations establish condition-variable identities for the wait rules.
const std::set<std::string> kMutexTypeNames = {"Mutex", "SharedMutex"};

/// Blocking leaves: reached while holding any lock, these are
/// PPROX-LOCK-BLOCKING. Mirrors the --hotpath blocking table minus
/// lock/lock_shared (modeled as acquisitions here, not blockers) plus
/// "submit" (bounded pool queues block when full).
const std::set<std::string> kBlockingCallNames = {
    "wait", "wait_for", "wait_until", "join", "sleep_for", "sleep_until",
    "sleep", "usleep", "nanosleep", "recv", "send", "sendto", "recvfrom",
    "poll", "ppoll", "select", "pselect", "epoll_wait", "epoll_pwait",
    "accept", "accept4", "connect", "fsync", "fdatasync", "flock",
    "getline", "submit",
};

/// Blocking only when written globally qualified (`::read`).
const std::set<std::string> kBlockGlobalOnlyNames = {
    "read", "write", "open", "pread", "pwrite", "readv", "writev",
};

/// Manual mutex operations on a receiver (guard variable or declared mutex).
const std::set<std::string> kManualOpNames = {"lock", "unlock", "lock_shared",
                                              "unlock_shared"};

/// Builtin calls that terminate a chain without lock relevance: never
/// resolved to scanned functions (same rationale as --hotpath: a push_back
/// is the STL member it almost certainly is, and resolving it by last
/// component manufactures ghost edges).
const std::set<std::string> kTerminalCallNames = {
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "posix_memalign", "make_unique", "make_shared", "to_string",
    "push_back", "emplace_back", "emplace_front", "emplace", "insert",
    "resize", "reserve", "append", "assign", "substr", "stoi", "stol",
    "stoul", "stoull", "stod",
};

/// Receiver-dot accessors that are never scanned functions (shared
/// rationale with --hotpath, DESIGN.md §11.2).
const std::set<std::string> kNeutralMemberNames = {
    "load",  "store", "exchange", "fetch_add", "fetch_sub",
    "compare_exchange_weak", "compare_exchange_strong", "clear", "empty",
    "get",   "size",  "length",   "begin",     "end",
    "data",  "c_str", "front",    "back",      "top",
    "count", "contains", "erase",
};

const std::set<std::string> kNotACall = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "else", "do", "case", "goto", "new", "delete", "throw", "static_cast",
    "dynamic_cast", "reinterpret_cast", "const_cast", "decltype", "typeid",
    "co_await", "co_return", "co_yield", "noexcept", "alignas",
    "static_assert", "defined", "assert", "PPROX_HOT", "PPROX_NONBLOCKING",
    "PPROX_ECALL_BOUNDARY",
};

/// common/sync.hpp (and the det-routed twin) implement the primitives: the
/// raw .lock()/.unlock() inside them is the one legitimate site, and their
/// bodies would otherwise self-flag every rule. Their functions stay in the
/// graph (so calls resolve) but contribute no events.
bool is_sync_impl_file(const std::string& path) {
  const std::string name = fs::path(path).filename().string();
  return name == "sync.hpp" || name == "sync.cpp";
}

// ---------------------------------------------------------------------------
// Events recorded while replaying a body span.
// ---------------------------------------------------------------------------

/// Lock acquisition (guard construction, manual .lock(), or the hidden
/// re-acquisition when CondVar::wait returns).
struct AcquireEv {
  std::string lock;
  std::size_t line = 0;
  std::vector<std::string> held_before;
  bool wait_reacquire = false;  ///< order edges only, not in acquires()
  std::string file;
};

/// Blocking leaf with the locks held at the site (for CondVar::wait the
/// released lock is already subtracted — the exemption).
struct BlockEv {
  std::string token;
  std::size_t line = 0;
  std::vector<std::string> held;
  std::string file;
};

/// Direct Enclave::ecall call site.
struct EcallEv {
  std::size_t line = 0;
  std::vector<std::string> held;
  std::string file;
};

/// Unresolved call site with the locks held at it.
struct CallEv {
  std::string name;
  bool member = false;
  bool global = false;
  std::size_t line = 0;
  std::vector<std::string> held;
  unsigned mask = kAllAspects;
  std::string file;
};

/// Resolved call edge.
struct Edge {
  int callee = -1;
  std::vector<std::string> held;
  unsigned mask = kAllAspects;
  std::size_t line = 0;
  std::string file;
};

/// One propagated fact with its shortest witness chain.
struct Witness {
  std::string chain;  ///< "f -> g -> leaf-fn"
  std::string file;
  std::size_t line = 0;
  std::string token;
};

struct Summary {
  bool blocks = false;
  Witness block_w;
  bool ecalls = false;
  Witness ecall_w;
  std::map<std::string, Witness> acquires;  ///< lock -> witness
};

struct FnData {
  std::vector<AcquireEv> acquires;
  std::vector<BlockEv> blocks;
  std::vector<EcallEv> ecalls;
  std::vector<CallEv> calls;
  std::vector<Edge> edges;
  Summary sum;
};

struct Pass {
  cg::Graph g;
  std::vector<FnData> data;
  std::vector<Finding> direct_findings;  ///< manual + nopred, minted in walk
  std::map<std::string, std::map<std::size_t, unsigned>> line_suppressions;
  std::set<std::string> mutex_names;  ///< declared mutex variable names
  std::set<std::string> cv_names;     ///< declared CondVar variable names
};

unsigned line_mask(const Pass& p, const std::string& file, std::size_t line) {
  const auto fit = p.line_suppressions.find(file);
  if (fit == p.line_suppressions.end()) return kAllAspects;
  const auto lit = fit->second.find(line);
  if (lit == fit->second.end()) return kAllAspects;
  return kAllAspects & ~lit->second;
}

// ---------------------------------------------------------------------------
// Declared-name scan: which identifiers are mutexes / condition variables.
// ---------------------------------------------------------------------------

void scan_declared_names(Pass& p) {
  for (const cg::Tu& tu : p.g.tus) {
    if (is_sync_impl_file(tu.path)) continue;
    const auto& toks = tu.toks;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      const bool is_mutex = kMutexTypeNames.count(t) != 0;
      const bool is_cv = t == "CondVar";
      if (!is_mutex && !is_cv) continue;
      std::size_t k = i + 1;
      while (k < toks.size() &&
             (toks[k].text == "&" || toks[k].text == "*")) {
        ++k;
      }
      if (k + 1 >= toks.size() || !cg::is_ident_tok(toks[k].text)) continue;
      const std::string& nxt = toks[k + 1].text;
      if (nxt == ";" || nxt == "=" || nxt == "{" || nxt == "," ||
          nxt == ")") {
        (is_mutex ? p.mutex_names : p.cv_names).insert(toks[k].text);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Body replay: held-lock tracking and event extraction.
// ---------------------------------------------------------------------------

/// Lock identity from the tokens of a guard-constructor argument: "::" runs
/// merge into one component, components join with "."; `this`, `*`, `&`
/// are skipped; a single unqualified component is qualified by the
/// declaring scope (local mutex -> function, member mutex -> class).
std::string lock_id_from_parts(const cg::Fn& fn,
                               const std::set<std::string>& local_mutexes,
                               const std::vector<std::string>& parts) {
  if (parts.empty()) return "";
  if (parts.size() == 1 && parts[0].find("::") == std::string::npos) {
    const std::string& n = parts[0];
    if (local_mutexes.count(n) != 0) return fn.qname + "::" + n;
    if (!fn.cls.empty()) return fn.cls + "::" + n;
    return n;
  }
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += ".";
    out += parts[i];
  }
  return out;
}

void erase_last(std::vector<std::string>& held, const std::string& lock) {
  for (std::size_t i = held.size(); i-- > 0;) {
    if (held[i] == lock) {
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

/// Replays one body span. Mirrors the hotpath replay loop: absolute indices
/// into the TU token stream, forward qualified-path building, member/global
/// detection via the preceding token — plus a block-structured guard
/// registry so the held set shrinks when guards go out of scope.
void replay_span(Pass& p, int fi, const cg::Span& sp) {
  const cg::Fn& fn = p.g.fns[static_cast<std::size_t>(fi)];
  FnData& d = p.data[static_cast<std::size_t>(fi)];
  const std::vector<cg::Tok>& toks =
      p.g.tus[static_cast<std::size_t>(sp.tu)].toks;
  const std::string& file = p.g.tus[static_cast<std::size_t>(sp.tu)].path;
  const std::string kEnd;
  auto text = [&](std::size_t at) -> const std::string& {
    return at < toks.size() ? toks[at].text : kEnd;
  };

  struct GuardInfo {
    std::string lock;
    bool engaged = false;
  };
  struct Frame {
    std::vector<std::string> release_at_end;   ///< guard vars scoped here
    std::vector<std::string> reengage_at_end;  ///< ScopedUnlock'd guards
  };
  std::map<std::string, GuardInfo> guards;
  std::vector<Frame> frames(1);
  std::vector<std::string> held;
  std::set<std::string> local_mutexes, local_cvs;
  int tmp_counter = 0;

  // Backward receiver path for a member call at `at` (toks[at-1] is
  // "."/"->"): {"server_", "mu_"} for server_->mu_.lock(). Empty when the
  // receiver is an expression the token walk cannot name.
  auto receiver_path = [&](std::size_t at) {
    std::vector<std::string> comps;
    std::size_t k = at;
    while (k >= 2 &&
           (toks[k - 1].text == "." || toks[k - 1].text == "->")) {
      if (!cg::is_ident_tok(toks[k - 2].text)) {
        comps.clear();
        break;
      }
      comps.insert(comps.begin(), toks[k - 2].text);
      k -= 2;
    }
    if (!comps.empty() && comps.front() == "this") {
      comps.erase(comps.begin());
    }
    return comps;
  };

  // Collects one constructor/call argument starting at `at` (just past the
  // opener) into "::"-merged components; stops at the top-level "," or the
  // closing token.
  auto arg_parts = [&](std::size_t at) {
    std::vector<std::string> parts;
    bool glue = false;  // previous token was "::"
    for (std::size_t k = at; k < toks.size() && k < at + 64; ++k) {
      const std::string& a = toks[k].text;
      if (a == "(" || a == "{" || a == "[") break;  // nested expr: stop
      if (a == ")" || a == "}" || a == "]") break;
      if (a == "," || a == ";") break;
      if (a == "this" || a == "*" || a == "&") continue;
      if (a == "::") {
        glue = !parts.empty();
        continue;
      }
      if (a == "." || a == "->") {
        glue = false;
        continue;
      }
      if (cg::is_ident_tok(a)) {
        if (glue) {
          parts.back() += "::" + a;
          glue = false;
        } else {
          parts.push_back(a);
        }
      }
    }
    return parts;
  };

  auto record_acquire = [&](const std::string& lock, std::size_t line,
                            bool wait_reacquire) {
    d.acquires.push_back({lock, line, held, wait_reacquire, file});
  };

  std::size_t i = sp.begin;
  while (i < sp.end) {
    const std::string& t = toks[i].text;
    const std::size_t line = toks[i].line;
    if (t == "{") {
      frames.emplace_back();
      ++i;
      continue;
    }
    if (t == "}") {
      // ScopedUnlock destructors re-lock before guards declared in the
      // same frame release (the common shape nests ScopedUnlock in its own
      // block, so the order rarely matters in practice).
      Frame& fr = frames.back();
      for (const std::string& var : fr.reengage_at_end) {
        auto it = guards.find(var);
        if (it != guards.end() && !it->second.engaged) {
          it->second.engaged = true;
          held.push_back(it->second.lock);
        }
      }
      for (const std::string& var : fr.release_at_end) {
        auto it = guards.find(var);
        if (it != guards.end()) {
          if (it->second.engaged) erase_last(held, it->second.lock);
          guards.erase(it);
        }
      }
      if (frames.size() > 1) frames.pop_back();
      ++i;
      continue;
    }
    if (!cg::is_ident_tok(t) || kNotACall.count(t) != 0) {
      ++i;
      continue;
    }

    // Forward qualified path.
    std::string name = t;
    std::size_t j = i + 1;
    while (j + 1 < toks.size() && toks[j].text == "::" &&
           cg::is_ident_tok(toks[j + 1].text)) {
      name += "::" + toks[j + 1].text;
      j += 2;
    }
    const std::string last = cg::last_component(name);

    // Local mutex / condvar declaration: `Mutex m;`, `CondVar& cv = ...;`.
    if (kMutexTypeNames.count(last) != 0 || last == "CondVar") {
      std::size_t k = j;
      while (k < toks.size() &&
             (toks[k].text == "&" || toks[k].text == "*")) {
        ++k;
      }
      if (k + 1 < toks.size() && cg::is_ident_tok(toks[k].text)) {
        const std::string& nxt = toks[k + 1].text;
        if (nxt == ";" || nxt == "=" || nxt == "{" || nxt == ",") {
          (last == "CondVar" ? local_cvs : local_mutexes)
              .insert(toks[k].text);
        }
      }
      i = j;
      continue;
    }

    // ScopedUnlock var(guard): drop the guard's lock until scope end.
    if (last == "ScopedUnlock") {
      std::size_t k = j;
      if (k < toks.size() && cg::is_ident_tok(toks[k].text)) ++k;
      if (k + 1 < toks.size() &&
          (toks[k].text == "(" || toks[k].text == "{") &&
          cg::is_ident_tok(toks[k + 1].text)) {
        auto it = guards.find(toks[k + 1].text);
        if (it != guards.end() && it->second.engaged) {
          it->second.engaged = false;
          erase_last(held, it->second.lock);
          frames.back().reengage_at_end.push_back(toks[k + 1].text);
        }
      }
      i = j;
      continue;
    }

    // Guard construction: LockGuard g(mu); UniqueLock l{mu}; also the
    // unnamed temporary (block-scoped, conservative).
    if (kGuardTypeNames.count(last) != 0) {
      std::size_t k = j;
      std::string var;
      if (k < toks.size() && cg::is_ident_tok(toks[k].text)) {
        var = toks[k].text;
        ++k;
      }
      if (k < toks.size() && (toks[k].text == "(" || toks[k].text == "{")) {
        const std::string lock =
            lock_id_from_parts(fn, local_mutexes, arg_parts(k + 1));
        if (!lock.empty()) {
          if (var.empty()) var = "<tmp" + std::to_string(tmp_counter++) + ">";
          record_acquire(lock, line, /*wait_reacquire=*/false);
          guards[var] = {lock, true};
          frames.back().release_at_end.push_back(var);
          held.push_back(lock);
        }
      }
      i = j;
      continue;
    }

    const bool call = j < toks.size() && toks[j].text == "(";
    if (!call) {
      i = j;
      continue;
    }
    const bool member =
        i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
    const bool global = i > 0 && toks[i - 1].text == "::" &&
                        (i < 2 || !cg::is_ident_tok(toks[i - 2].text));
    const unsigned mask = line_mask(p, file, line);

    // CondVar::wait / wait_for / wait_until on a known condition variable.
    if (member &&
        (last == "wait" || last == "wait_for" || last == "wait_until")) {
      const std::vector<std::string> recv = receiver_path(i);
      const bool is_cv =
          !recv.empty() && (p.cv_names.count(recv.back()) != 0 ||
                            local_cvs.count(recv.back()) != 0);
      if (is_cv) {
        std::string cv_id;
        for (std::size_t ci = 0; ci < recv.size(); ++ci) {
          if (ci != 0) cv_id += ".";
          cv_id += recv[ci];
        }
        // Count top-level arguments.
        int depth = 1;
        std::size_t args = text(j + 1) == ")" ? 0 : 1;
        for (std::size_t k = j + 1; k < toks.size() && depth > 0; ++k) {
          const std::string& a = toks[k].text;
          if (a == "(" || a == "{" || a == "[") {
            ++depth;
          } else if (a == ")" || a == "}" || a == "]") {
            --depth;
          } else if (a == "," && depth == 1) {
            ++args;
          }
        }
        const std::size_t want = last == "wait" ? 2 : 3;
        if (args < want && (mask & kNopred) != 0) {
          Finding f;
          f.rule = "wait-nopred";
          f.key = "wait-nopred|" + fn.qname + "|" + cv_id;
          f.path = file;
          f.line = line;
          f.chain = fn.qname;
          f.message = "PPROX-WAIT-NOPRED: " + cv_id + "." + last +
                      " in " + fn.qname +
                      " has no predicate; spurious wakeups will run the "
                      "continuation with the invariant unchecked — pass the "
                      "condition as the predicate argument, suppress with "
                      "// PPROX-LOCKS-" "OK(nopred): <why>, or ratchet it "
                      "in the --baseline file";
          p.direct_findings.push_back(std::move(f));
        }
        // The wait releases the guard passed as the first argument: that
        // lock is exempt; every *other* held lock sits across the wait.
        std::vector<std::string> residual = held;
        std::string released;
        if (cg::is_ident_tok(text(j + 1))) {
          auto it = guards.find(text(j + 1));
          if (it != guards.end() && it->second.engaged) {
            released = it->second.lock;
            erase_last(residual, released);
          }
        }
        if ((mask & kBlocking) != 0) {
          d.blocks.push_back({last, line, residual, file});
        }
        if (!released.empty()) {
          // Hidden re-acquisition when the wait returns: an order edge
          // residual -> released, but not an acquire the function exports.
          d.acquires.push_back(
              {released, line, residual, /*wait_reacquire=*/true, file});
        }
        i = j;
        continue;
      }
      // Non-CondVar wait (future.wait(), latch.wait()): plain blocker.
      if ((mask & kBlocking) != 0) {
        d.blocks.push_back({last, line, held, file});
      }
      i = j;
      continue;
    }

    // Manual mutex operation: guard-var juggling or a bare mutex call.
    if (member && kManualOpNames.count(last) != 0) {
      const std::vector<std::string> recv = receiver_path(i);
      std::string lock;
      bool via_guard = false;
      if (recv.size() == 1) {
        auto git = guards.find(recv[0]);
        if (git != guards.end()) {
          lock = git->second.lock;
          via_guard = true;
        } else if (local_mutexes.count(recv[0]) != 0 ||
                   p.mutex_names.count(recv[0]) != 0) {
          lock = lock_id_from_parts(fn, local_mutexes, recv);
        }
      } else if (!recv.empty() && p.mutex_names.count(recv.back()) != 0) {
        lock = lock_id_from_parts(fn, local_mutexes, recv);
      }
      if (!lock.empty()) {
        const bool is_lock = last == "lock" || last == "lock_shared";
        std::string recv_txt;
        for (std::size_t ci = 0; ci < recv.size(); ++ci) {
          if (ci != 0) recv_txt += ".";
          recv_txt += recv[ci];
        }
        if ((mask & kManual) != 0) {
          Finding f;
          f.rule = "lock-manual";
          f.key = "lock-manual|" + fn.qname + "|" + recv_txt + "." + last;
          f.path = file;
          f.line = line;
          f.chain = fn.qname;
          f.message = "PPROX-LOCK-MANUAL: bare " + recv_txt + "." + last +
                      "() in " + fn.qname +
                      " — manual lock flow is invisible to RAII reasoning "
                      "and to this analyzer's held-set tracking; use "
                      "LockGuard/UniqueLock (or ScopedUnlock to release "
                      "across a call), suppress with // PPROX-LOCKS-"
                      "OK(manual): <why>, or ratchet it in the --baseline "
                      "file";
          p.direct_findings.push_back(std::move(f));
        }
        // Track the held set through the manual op regardless of whether
        // the finding was suppressed.
        if (is_lock) {
          record_acquire(lock, line, /*wait_reacquire=*/false);
          held.push_back(lock);
          if (via_guard) guards[recv[0]].engaged = true;
        } else {
          erase_last(held, lock);
          if (via_guard) guards[recv[0]].engaged = false;
        }
      }
      // weak_ptr.lock() etc.: no lock identity, no event.
      i = j;
      continue;
    }

    // Enclave::ecall — the boundary crossing itself. The callable executes
    // inside the enclave; holding any lock across it pins the lock for the
    // whole transition (and a pre-empted enclave thread cannot release it).
    if (last == "ecall") {
      if ((mask & kEcall) != 0) d.ecalls.push_back({line, held, file});
      i = j;
      continue;
    }

    // Blocking builtin leaves.
    if (kBlockingCallNames.count(last) != 0 ||
        (global && kBlockGlobalOnlyNames.count(last) != 0)) {
      if ((mask & kBlocking) != 0) {
        d.blocks.push_back({global ? "::" + last : last, line, held, file});
      }
      i = j;
      continue;
    }

    // Neutral accessors and alloc-family builtins terminate without events.
    if (member && kNeutralMemberNames.count(last) != 0) {
      i = j;
      continue;
    }
    if (kTerminalCallNames.count(last) != 0) {
      i = j;
      continue;
    }

    d.calls.push_back({name, member, global, line, held, mask, file});
    i = j;
    continue;
  }
}

void extract_events(Pass& p) {
  p.data.assign(p.g.fns.size(), FnData{});
  for (std::size_t fi = 0; fi < p.g.fns.size(); ++fi) {
    for (const cg::Span& sp : p.g.fns[fi].bodies) {
      if (is_sync_impl_file(p.g.tus[static_cast<std::size_t>(sp.tu)].path)) {
        continue;
      }
      replay_span(p, static_cast<int>(fi), sp);
    }
  }
}

void resolve_calls(Pass& p) {
  const auto by_last = cg::index_by_last(p.g);
  for (std::size_t i = 0; i < p.g.fns.size(); ++i) {
    FnData& d = p.data[i];
    for (const CallEv& c : d.calls) {
      for (int t : cg::resolve_name(p.g, by_last, p.g.fns[i], c.name)) {
        d.edges.push_back({t, c.held, c.mask, c.line, c.file});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Summary fixpoint: blocks / ecalls / acquires with witness chains.
// ---------------------------------------------------------------------------

void init_summaries(Pass& p) {
  for (std::size_t i = 0; i < p.g.fns.size(); ++i) {
    const cg::Fn& fn = p.g.fns[i];
    Summary& s = p.data[i].sum;
    for (const BlockEv& b : p.data[i].blocks) {
      if (!s.blocks) {
        s.blocks = true;
        s.block_w = {fn.qname, b.file, b.line, b.token};
      }
    }
    if ((fn.annotations & cg::kAnnEcall) != 0) {
      s.ecalls = true;
      s.ecall_w = {fn.qname, fn.file, fn.line, "PPROX_ECALL_BOUNDARY"};
    }
    for (const EcallEv& e : p.data[i].ecalls) {
      if (!s.ecalls) {
        s.ecalls = true;
        s.ecall_w = {fn.qname, e.file, e.line, "ecall"};
      }
    }
    for (const AcquireEv& a : p.data[i].acquires) {
      if (a.wait_reacquire) continue;
      if (s.acquires.count(a.lock) == 0) {
        s.acquires[a.lock] = {fn.qname, a.file, a.line, a.lock};
      }
    }
  }
}

void propagate_summaries(Pass& p) {
  bool changed = true;
  std::size_t guard = 0;
  while (changed && guard++ < p.g.fns.size() + 8) {
    changed = false;
    for (std::size_t i = 0; i < p.g.fns.size(); ++i) {
      const cg::Fn& fn = p.g.fns[i];
      Summary& s = p.data[i].sum;
      for (const Edge& e : p.data[i].edges) {
        const Summary& cs = p.data[static_cast<std::size_t>(e.callee)].sum;
        if ((e.mask & kBlocking) != 0 && cs.blocks && !s.blocks) {
          s.blocks = true;
          s.block_w = cs.block_w;
          s.block_w.chain = fn.qname + " -> " + cs.block_w.chain;
          changed = true;
        }
        if ((e.mask & kEcall) != 0 && cs.ecalls && !s.ecalls) {
          s.ecalls = true;
          s.ecall_w = cs.ecall_w;
          s.ecall_w.chain = fn.qname + " -> " + cs.ecall_w.chain;
          changed = true;
        }
        if ((e.mask & kOrder) != 0) {
          for (const auto& [lock, w] : cs.acquires) {
            if (s.acquires.count(lock) != 0) continue;
            Witness nw = w;
            nw.chain = fn.qname + " -> " + w.chain;
            s.acquires[lock] = std::move(nw);
            changed = true;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Findings: blocking-while-locked and ecall-while-locked.
// ---------------------------------------------------------------------------

void collect_held_findings(const Pass& p, std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < p.g.fns.size(); ++i) {
    const cg::Fn& fn = p.g.fns[i];
    const FnData& d = p.data[i];
    auto emit = [&](const char* rule, const char* label,
                    const std::string& hold, const Witness& w,
                    const std::string& advice) {
      Finding f;
      f.rule = rule;
      f.key = std::string(rule) + "|" + hold + "|" + fn.qname + "|" + w.token;
      f.path = w.file.empty() ? fn.file : w.file;
      f.line = w.line != 0 ? w.line : fn.line;
      f.chain = w.chain;
      f.message = std::string(label) + ": lock '" + hold +
                  "' is held across '" + w.token + "': " + w.chain + "; " +
                  advice + ", or ratchet it in the --baseline file";
      findings.push_back(std::move(f));
    };
    const std::string block_advice =
        "release it first (ScopedUnlock in common/sync.hpp releases across "
        "a call and re-locks on scope exit) or suppress the line with "
        "// PPROX-LOCKS-" "OK(blocking): <why>";
    const std::string ecall_advice =
        "no lock may be held across the enclave boundary (the enclave "
        "thread cannot be trusted to release it); release before the ecall "
        "or suppress with // PPROX-LOCKS-" "OK(ecall): <why>";
    for (const BlockEv& b : d.blocks) {
      for (const std::string& hold : b.held) {
        emit("lock-blocking", "PPROX-LOCK-BLOCKING", hold,
             {fn.qname, b.file, b.line, b.token}, block_advice);
      }
    }
    for (const EcallEv& e : d.ecalls) {
      for (const std::string& hold : e.held) {
        emit("lock-ecall", "PPROX-LOCK-ECALL", hold,
             {fn.qname, e.file, e.line, "ecall"}, ecall_advice);
      }
    }
    for (const Edge& e : d.edges) {
      if (e.held.empty()) continue;
      const Summary& cs = p.data[static_cast<std::size_t>(e.callee)].sum;
      if ((e.mask & kBlocking) != 0 && cs.blocks) {
        Witness w = cs.block_w;
        w.chain = fn.qname + " -> " + cs.block_w.chain;
        for (const std::string& hold : e.held) {
          emit("lock-blocking", "PPROX-LOCK-BLOCKING", hold, w,
               block_advice);
        }
      }
      if ((e.mask & kEcall) != 0 && cs.ecalls) {
        Witness w = cs.ecall_w;
        w.chain = fn.qname + " -> " + cs.ecall_w.chain;
        for (const std::string& hold : e.held) {
          emit("lock-ecall", "PPROX-LOCK-ECALL", hold, w, ecall_advice);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lock-order graph and cycle findings.
// ---------------------------------------------------------------------------

struct OrderEdge {
  std::string chain;
  std::string file;
  std::size_t line = 0;
};

void collect_order_findings(const Pass& p, std::vector<Finding>& findings) {
  // Edge (H, L): L acquired while H held. First witness per pair wins.
  std::map<std::string, std::map<std::string, OrderEdge>> graph;
  auto add_edge = [&](const std::string& h, const std::string& l,
                      OrderEdge e) {
    if (h == l) return;  // per-instance collapse: self-edges are noise
    auto& row = graph[h];
    if (row.count(l) == 0) row.emplace(l, std::move(e));
    graph.emplace(l, std::map<std::string, OrderEdge>{});  // ensure node
  };
  for (std::size_t i = 0; i < p.g.fns.size(); ++i) {
    const cg::Fn& fn = p.g.fns[i];
    const FnData& d = p.data[i];
    for (const AcquireEv& a : d.acquires) {
      if ((line_mask(p, a.file, a.line) & kOrder) == 0) continue;
      for (const std::string& h : a.held_before) {
        add_edge(h, a.lock, {fn.qname, a.file, a.line});
      }
    }
    for (const Edge& e : d.edges) {
      if (e.held.empty() || (e.mask & kOrder) == 0) continue;
      const Summary& cs = p.data[static_cast<std::size_t>(e.callee)].sum;
      for (const auto& [lock, w] : cs.acquires) {
        for (const std::string& h : e.held) {
          add_edge(h, lock, {fn.qname + " -> " + w.chain, w.file, w.line});
        }
      }
    }
  }

  // Tarjan over the lock nodes.
  std::vector<std::string> names;
  std::map<std::string, int> id;
  for (const auto& [nm, row] : graph) {
    (void)row;
    id[nm] = static_cast<int>(names.size());
    names.push_back(nm);
  }
  const std::size_t n = names.size();
  std::vector<std::vector<int>> succ(n);
  for (const auto& [from, row] : graph) {
    for (const auto& [to, e] : row) {
      (void)e;
      succ[static_cast<std::size_t>(id[from])].push_back(id[to]);
    }
  }
  std::vector<int> indices(n, -1), low(n, 0), comp(n, -1);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  int counter = 0, ncomp = 0;
  struct Frame {
    int v;
    std::size_t edge = 0;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (indices[root] != -1) continue;
    std::vector<Frame> work;
    work.push_back({static_cast<int>(root)});
    indices[root] = low[root] = counter++;
    stack.push_back(static_cast<int>(root));
    on_stack[root] = true;
    while (!work.empty()) {
      Frame& fr = work.back();
      auto& edges = succ[static_cast<std::size_t>(fr.v)];
      if (fr.edge < edges.size()) {
        const int w = edges[fr.edge++];
        if (indices[static_cast<std::size_t>(w)] == -1) {
          indices[static_cast<std::size_t>(w)] =
              low[static_cast<std::size_t>(w)] = counter++;
          stack.push_back(w);
          on_stack[static_cast<std::size_t>(w)] = true;
          work.push_back({w});
        } else if (on_stack[static_cast<std::size_t>(w)]) {
          low[static_cast<std::size_t>(fr.v)] =
              std::min(low[static_cast<std::size_t>(fr.v)],
                       indices[static_cast<std::size_t>(w)]);
        }
      } else {
        const int v = fr.v;
        work.pop_back();
        if (!work.empty()) {
          const int parent = work.back().v;
          low[static_cast<std::size_t>(parent)] =
              std::min(low[static_cast<std::size_t>(parent)],
                       low[static_cast<std::size_t>(v)]);
        }
        if (low[static_cast<std::size_t>(v)] ==
            indices[static_cast<std::size_t>(v)]) {
          while (true) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = false;
            comp[static_cast<std::size_t>(w)] = ncomp;
            if (w == v) break;
          }
          ++ncomp;
        }
      }
    }
  }

  // One finding per nontrivial SCC: shortest cycle through the
  // lexicographically smallest lock, so the key is deterministic.
  std::map<int, std::vector<int>> members;
  for (std::size_t v = 0; v < n; ++v) {
    members[comp[v]].push_back(static_cast<int>(v));
  }
  for (auto& [c, vs] : members) {
    (void)c;
    if (vs.size() < 2) continue;
    int start = vs[0];
    for (int v : vs) {
      if (names[static_cast<std::size_t>(v)] <
          names[static_cast<std::size_t>(start)]) {
        start = v;
      }
    }
    // BFS from start within the SCC, looking for the shortest path back.
    std::vector<int> parent(n, -2);
    std::queue<int> q;
    q.push(start);
    parent[static_cast<std::size_t>(start)] = -1;
    std::vector<int> cycle;
    while (!q.empty() && cycle.empty()) {
      const int v = q.front();
      q.pop();
      for (int w : succ[static_cast<std::size_t>(v)]) {
        if (comp[static_cast<std::size_t>(w)] !=
            comp[static_cast<std::size_t>(start)]) {
          continue;
        }
        if (w == start) {
          for (int u = v; u != -1;
               u = parent[static_cast<std::size_t>(u)]) {
            cycle.push_back(u);
          }
          std::reverse(cycle.begin(), cycle.end());
          cycle.push_back(start);  // close the loop
          break;
        }
        if (parent[static_cast<std::size_t>(w)] == -2) {
          parent[static_cast<std::size_t>(w)] = v;
          q.push(w);
        }
      }
    }
    if (cycle.empty()) continue;  // unreachable for a nontrivial SCC

    std::string path_txt;
    for (std::size_t ci = 0; ci < cycle.size(); ++ci) {
      if (ci != 0) path_txt += "->";
      path_txt += names[static_cast<std::size_t>(cycle[ci])];
    }
    std::string msg = "PPROX-LOCK-ORDER: lock-order cycle " + path_txt;
    const OrderEdge* first = nullptr;
    for (std::size_t ci = 0; ci + 1 < cycle.size(); ++ci) {
      const std::string& a = names[static_cast<std::size_t>(cycle[ci])];
      const std::string& b = names[static_cast<std::size_t>(cycle[ci + 1])];
      const OrderEdge& e = graph[a].at(b);
      if (first == nullptr) first = &e;
      msg += "; '" + b + "' acquired with '" + a + "' held via " + e.chain +
             " (" + fs::path(e.file).filename().string() + ":" +
             std::to_string(e.line) + ")";
    }
    msg += "; impose one global acquisition order, suppress an acquire "
           "line with // PPROX-LOCKS-" "OK(order): <why>, or ratchet it in "
           "the --baseline file";
    Finding f;
    f.rule = "lock-order";
    f.key = "lock-order|" + path_txt;
    f.path = first->file;
    f.line = first->line;
    f.chain = first->chain;
    f.message = std::move(msg);
    findings.push_back(std::move(f));
  }
}

}  // namespace

int run(const cg::Options& opts) {
  const cg::PassSpec spec{
      .mode = "locks",
      .anchor = "locks",
      .what = "lock-discipline",
      // Split so this tool's own sources never self-match.
      .marker = std::string("PPROX-LOCKS-") + "OK(",
      .from_name = &aspect_from_name,
      .bare_rule = "locks-bare-suppression",
      .bare_message = "lock-discipline suppression without a justification; "
                      "write PPROX-LOCKS-" "OK(<aspect>): <why> (the bare "
                      "form suppresses nothing)",
      .default_why = "baselined pre-existing violation; shrink, do not grow "
                     "(DESIGN.md §12.5)"};
  std::vector<cg::Source> sources;
  std::vector<Finding> findings;
  if (!cg::load_sources(spec, opts, sources, findings)) return 2;
  Pass p;
  for (const cg::Source& src : sources) {
    p.line_suppressions[src.path] = src.suppressions;
    p.g.add_tu(src.path, cg::tokenize(cg::code_lines(src.raw)));
  }

  p.g.merge_decl_annotations();
  scan_declared_names(p);
  extract_events(p);
  resolve_calls(p);
  init_summaries(p);
  propagate_summaries(p);

  for (Finding& f : p.direct_findings) findings.push_back(std::move(f));
  collect_held_findings(p, findings);
  collect_order_findings(p, findings);

  // Transitive emission can mint the same key through several chains.
  std::set<std::string> seen;
  std::vector<Finding> unique;
  for (Finding& f : findings) {
    if (seen.insert(f.key).second) unique.push_back(std::move(f));
  }
  findings = std::move(unique);

  return cg::report(spec, opts, findings, sources.size());
}

}  // namespace locks
