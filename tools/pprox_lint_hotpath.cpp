// pprox_lint --hotpath — call-graph hot-path discipline pass (DESIGN.md §11).
//
// Statically enforces the performance discipline the paper's proxy depends
// on: annotated request-path functions must stay allocation-free,
// non-blocking, and bounded. The pass
//
//   1. parses every TU via the shared call-graph front end
//      (lint_callgraph.hpp) and replays each function's body span against
//      the hot-path leaf vocabulary, recording *leaf effects* and *call
//      edges*;
//   2. resolves calls to scanned functions by qualified name (best-effort:
//      unqualified calls prefer the caller's class, then fall back to every
//      scanned function with that name — which is also how virtual calls
//      resolve to every override; see §11.2 for the soundness limits);
//   3. propagates effect labels (alloc / block / throw / recursion) over the
//      graph to a fixpoint, with recursion cycles detected via SCCs;
//   4. reports, for every PPROX_HOT / PPROX_NONBLOCKING /
//      PPROX_ECALL_BOUNDARY function, the full call chain to each reachable
//      forbidden leaf.
//
// Leaf effect patterns (the lattice bottom):
//   alloc  `new`, malloc/calloc/realloc/strdup, make_unique/make_shared,
//          growing-container members (push_back/emplace*/insert/resize/
//          reserve/append/assign/substr), std::to_string, std::string/
//          std::vector/Bytes construction, std::function (type-erased
//          capture may heap-allocate).
//   block  LockGuard/UniqueLock/SharedLock construction, .lock()/.wait*()/
//          .join(), blocking syscalls (recv/send/poll/epoll_wait/accept/
//          connect/select, ::read/::write when globally qualified), sleeps.
//   throw  `throw` expressions.
//   recursion  membership in a call-graph cycle (SCC or self-edge).
//
// Suppression (reason mandatory; the one policy of lint_callgraph.hpp: it
// covers its own line and the line below, and a comment block above the
// code covers the first line below the block):
//   buf.push_back(b);  // PPROX-HOTPATH-OK(alloc): reserved in ctor
// A suppression covering a *call* stops the named effects from propagating
// through that call; covering a *leaf* it drops the leaf itself. A bare
// suppression (no ": reason") is itself a finding and suppresses nothing.
//
// Baseline ratchet: --baseline FILE compares finding *keys*
// (rule|root|leaf|token — line-number free, so they survive unrelated
// edits) against tools/hotpath_baseline.json; new keys fail, and so do
// stale keys, so the baseline shrinks as fixes land. --baseline-write FILE
// regenerates the file, carrying over existing "why" justifications.
#include "lint_passes.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <vector>

namespace hotpath {
namespace {

using cg::Finding;

// ---------------------------------------------------------------------------
// Effects.
// ---------------------------------------------------------------------------

enum Effect : unsigned {
  kAlloc = 1u << 0,
  kBlock = 1u << 1,
  kThrow = 1u << 2,
  kRecur = 1u << 3,
};

const char* effect_name(unsigned e) {
  switch (e) {
    case kAlloc: return "alloc";
    case kBlock: return "block";
    case kThrow: return "throw";
    case kRecur: return "recursion";
  }
  return "?";
}

unsigned effect_from_name(const std::string& name) {
  if (name == "alloc") return kAlloc;
  if (name == "block") return kBlock;
  if (name == "throw") return kThrow;
  if (name == "recursion") return kRecur;
  return 0;
}

/// One leaf effect inside a function body.
struct Leaf {
  unsigned kind = 0;
  std::string token;  ///< what matched, e.g. "new", "push_back", "::poll"
  std::size_t line = 0;
};

/// One call site inside a function body.
struct CallSite {
  std::string name;  ///< as written, "::" joined, leading "::" stripped
  bool member = false;
  bool global = false;  ///< written with a leading "::"
  std::size_t line = 0;
  unsigned mask = ~0u;  ///< effects allowed to propagate through
};

/// Pass-local per-function state, parallel to cg::Graph::fns.
struct Info {
  std::vector<Leaf> leaves;
  std::vector<CallSite> calls;
  std::vector<std::pair<int, unsigned>> edges;  ///< (callee index, mask)
  unsigned own = 0;    ///< union of leaf kinds
  unsigned reach = 0;  ///< fixpoint of own ∪ masked callee reach
};

struct Pass {
  const cg::Graph& g;
  const cg::Suppressions& sup;
  std::vector<Info> info;
};

// ---------------------------------------------------------------------------
// Leaf pattern tables (documented in the header comment and DESIGN.md §11).
// ---------------------------------------------------------------------------

const std::set<std::string> kAllocCallNames = {
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "posix_memalign", "make_unique", "make_shared", "to_string",
    "push_back", "emplace_back", "emplace_front", "emplace", "insert",
    "resize", "reserve", "append", "assign", "substr", "stoi", "stol",
    "stoul", "stoull", "stod",
};

/// Allocating type constructions recognized as direct calls (`Bytes(...)`)
/// or declarations with arguments (`Bytes b(n, 0);`).
const std::set<std::string> kAllocTypeNames = {
    "Bytes", "std::string", "std::vector", "std::deque", "std::map",
    "std::set", "std::unordered_map", "std::unordered_set", "std::list",
    "std::ostringstream", "std::istringstream", "std::stringstream",
};

/// Blocking calls in any syntactic form.
const std::set<std::string> kBlockCallNames = {
    "lock", "lock_shared", "wait", "wait_for", "wait_until", "join",
    "sleep_for", "sleep_until", "sleep", "usleep", "nanosleep", "recv",
    "send", "sendto", "recvfrom", "poll", "ppoll", "select", "pselect",
    "epoll_wait", "epoll_pwait", "accept", "accept4", "connect", "fsync",
    "fdatasync", "flock", "getline",
};

/// Blocking only when written globally qualified (`::read`): the bare names
/// are too common as method names to flag unconditionally.
const std::set<std::string> kBlockGlobalOnlyNames = {
    "read", "write", "open", "pread", "pwrite", "readv", "writev",
};

/// RAII lock types whose construction acquires a mutex.
const std::set<std::string> kLockTypeNames = {"LockGuard", "UniqueLock",
                                              "SharedLock"};

/// Member calls with these names never resolve to scanned functions: they
/// are overwhelmingly STL/atomic/smart-pointer accessors on a data member
/// (`samples_.clear()`, `value_.load()`, `ptr.get()`), and resolving them
/// by last component manufactures self-cycles (Atomic::load "calling"
/// itself) and cross-class ghost edges. The cost is that a *scanned*
/// function with one of these names called through a receiver is invisible
/// to the analyzer — a documented soundness limit (DESIGN.md §11.3); such
/// functions are still analyzed as roots/callees of qualified calls.
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

// ---------------------------------------------------------------------------
// Body replay: leaf and call-site extraction over recorded spans.
// ---------------------------------------------------------------------------

void add_leaf(Pass& p, int fi, unsigned kind, const std::string& token,
              std::size_t line, const std::string& file) {
  if ((p.sup.at(file, line) & kind) != 0) return;  // suppressed
  Info& f = p.info[static_cast<std::size_t>(fi)];
  for (const Leaf& l : f.leaves) {
    if (l.kind == kind && l.line == line && l.token == token) return;
  }
  f.leaves.push_back({kind, token, line});
  f.own |= kind;
}

/// Replays one body span against the hot-path vocabulary. This is the
/// original parser's body scan, verbatim minus the scope bookkeeping: the
/// span's brace structure is already known, and every lookahead reads the
/// same TU token stream at the same absolute indices as the single-pass
/// version did.
void replay_span(Pass& p, int fi, const cg::Span& sp) {
  const std::vector<cg::Tok>& toks =
      p.g.tus[static_cast<std::size_t>(sp.tu)].toks;
  const std::string& file = p.g.tus[static_cast<std::size_t>(sp.tu)].path;
  const std::string kEnd;
  auto text = [&](std::size_t at) -> const std::string& {
    return at < toks.size() ? toks[at].text : kEnd;
  };
  std::size_t i = sp.begin;
  while (i < sp.end) {
    const std::string& t = toks[i].text;
    const std::size_t line = toks[i].line;
    if (t == "new") {
      add_leaf(p, fi, kAlloc, "new", line, file);
      ++i;
      continue;
    }
    if (t == "throw") {
      add_leaf(p, fi, kThrow, "throw", line, file);
      ++i;
      continue;
    }
    if (kLockTypeNames.count(t) != 0) {
      add_leaf(p, fi, kBlock, t, line, file);
      ++i;
      continue;
    }
    if (t == "std" && text(i + 1) == "::" && text(i + 2) == "function") {
      add_leaf(p, fi, kAlloc, "std::function", line, file);
      i += 3;
      continue;
    }
    // Allocating type construction: Type[<...>] [name] ( / {
    if (t == "Bytes" || (t == "std" && text(i + 1) == "::" &&
                         kAllocTypeNames.count("std::" + text(i + 2)) != 0)) {
      const std::string type_name =
          t == "Bytes" ? "Bytes" : "std::" + text(i + 2);
      std::size_t j = i + (t == "Bytes" ? 1 : 3);
      // Optional template argument list.
      if (j < toks.size() && toks[j].text == "<") {
        int depth = 0;
        std::size_t k = j;
        while (k < toks.size() && k < j + 64) {
          if (toks[k].text == "<") ++depth;
          if (toks[k].text == ">" && --depth == 0) {
            j = k + 1;
            break;
          }
          if (toks[k].text == ";" || toks[k].text == "{") break;
          ++k;
        }
      }
      const bool direct_call =
          j < toks.size() && (toks[j].text == "(" || toks[j].text == "{");
      const bool decl_with_args =
          j + 1 < toks.size() && cg::is_ident_tok(toks[j].text) &&
          (toks[j + 1].text == "(" || toks[j + 1].text == "{");
      if (direct_call || decl_with_args) {
        add_leaf(p, fi, kAlloc, type_name, line, file);
      }
      ++i;
      continue;
    }
    if (cg::is_ident_tok(t) && kNotACall.count(t) == 0) {
      std::string name;
      const std::size_t j = cg::read_qualified(toks, i, toks.size(), name);
      const bool call = j < toks.size() && toks[j].text == "(";
      if (call) {
        const bool member =
            i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
        p.info[static_cast<std::size_t>(fi)].calls.push_back(
            {name, member, cg::is_global_name(toks, i), line,
             ~p.sup.at(file, line)});
        i = j;  // leave '(' for normal scanning (nested calls)
        continue;
      }
      i = j;
      continue;
    }
    ++i;
  }
}

void extract_effects(Pass& p) {
  p.info.assign(p.g.fns.size(), Info{});
  for (std::size_t fi = 0; fi < p.g.fns.size(); ++fi) {
    for (const cg::Span& sp : p.g.fns[fi].bodies) {
      replay_span(p, static_cast<int>(fi), sp);
    }
  }
}

// ---------------------------------------------------------------------------
// Resolution, SCCs, propagation.
// ---------------------------------------------------------------------------

/// Applies the builtin leaf tables to a call site. Returns the effect kind
/// (0 when the call is not a builtin leaf). Builtin names shadow scanned
/// functions by design: anything named push_back or lock is treated as the
/// std/sync primitive it almost certainly is, which keeps chains finite.
unsigned builtin_effect(const CallSite& c) {
  const std::string last = cg::last_component(c.name);
  if (kAllocTypeNames.count(c.name) != 0) return kAlloc;
  if (kAllocCallNames.count(last) != 0) return kAlloc;
  if (kBlockCallNames.count(last) != 0) return kBlock;
  if (kBlockGlobalOnlyNames.count(last) != 0 && c.global) return kBlock;
  return 0;
}

void resolve_calls(Pass& p) {
  const auto by_last = cg::index_by_last(p.g);
  for (std::size_t i = 0; i < p.g.fns.size(); ++i) {
    Info& f = p.info[i];
    for (const CallSite& c : f.calls) {
      if (c.member &&
          kNeutralMemberNames.count(cg::last_component(c.name)) != 0) {
        continue;  // receiver-dot accessor: effect-free, never a scanned fn
      }
      const unsigned builtin = builtin_effect(c);
      if (builtin != 0) {
        if ((c.mask & builtin) != 0) {
          bool dup = false;
          for (const Leaf& l : f.leaves) {
            if (l.kind == builtin && l.line == c.line && l.token == c.name) {
              dup = true;
              break;
            }
          }
          if (!dup) {
            f.leaves.push_back({builtin, c.name, c.line});
            f.own |= builtin;
          }
        }
        continue;  // builtin leaves terminate the chain: no edges
      }
      for (int t : cg::resolve_name(p.g, by_last, p.g.fns[i], c.name)) {
        f.edges.emplace_back(t, c.mask);
      }
    }
  }
}

/// Every function in a nontrivial SCC (or with a self-edge) gets the
/// recursion leaf.
void mark_recursion(Pass& p) {
  const std::size_t n = p.g.fns.size();
  std::vector<std::vector<int>> succ(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (const auto& [t, mask] : p.info[v].edges) succ[v].push_back(t);
  }
  const std::vector<int> comp = cg::scc_ids(succ);
  std::vector<std::size_t> comp_size(n, 0);
  for (const int c : comp) ++comp_size[static_cast<std::size_t>(c)];
  for (std::size_t v = 0; v < n; ++v) {
    const bool cyclic =
        comp_size[static_cast<std::size_t>(comp[v])] > 1 ||
        std::find(succ[v].begin(), succ[v].end(), static_cast<int>(v)) !=
            succ[v].end();
    if (!cyclic) continue;
    // The recursion leaf anchors to the definition line, so a
    // PPROX-HOTPATH-OK(recursion) comment covering that line drops it — same
    // contract as every other leaf kind.
    const cg::Fn& fn = p.g.fns[v];
    if ((p.sup.at(fn.file, fn.line) & kRecur) != 0) continue;
    p.info[v].leaves.push_back({kRecur, "recursion-cycle", fn.line});
    p.info[v].own |= kRecur;
  }
}

void propagate(Pass& p) {
  for (Info& f : p.info) f.reach = f.own;
  bool changed = true;
  std::size_t guard = 0;
  while (changed && guard++ < p.info.size() + 8) {
    changed = false;
    for (Info& f : p.info) {
      unsigned r = f.own;
      for (const auto& [t, mask] : f.edges) {
        r |= p.info[static_cast<std::size_t>(t)].reach & mask;
      }
      if (r != f.reach) {
        f.reach = r;
        changed = true;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Findings: per annotated root, shortest chain to every offending leaf fn.
// ---------------------------------------------------------------------------

std::string display_chain(const Pass& p, const std::vector<int>& parent,
                          int leaf) {
  std::vector<std::string> names;
  for (int v = leaf; v != -1; v = parent[static_cast<std::size_t>(v)]) {
    names.push_back(p.g.fns[static_cast<std::size_t>(v)].qname);
  }
  std::reverse(names.begin(), names.end());
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) out += " -> ";
    out += names[i];
  }
  return out;
}

void collect_findings(const Pass& p, std::vector<Finding>& findings) {
  struct RuleSpec {
    unsigned annotation;
    unsigned kind;
    const char* rule;
    const char* what;
  };
  static const RuleSpec kRules[] = {
      {cg::kAnnHot, kAlloc, "hot-alloc", "heap allocation"},
      {cg::kAnnHot, kThrow, "hot-throw", "exception throw"},
      {cg::kAnnHot, kRecur, "hot-recursion", "recursion cycle"},
      {cg::kAnnNonblocking, kBlock, "nonblocking-block", "blocking operation"},
      {cg::kAnnEcall, kAlloc, "ecall-alloc",
       "heap allocation inside the enclave boundary"},
      {cg::kAnnEcall, kBlock, "ecall-block",
       "blocking operation inside the enclave boundary"},
  };
  const char* kAnnName[] = {"PPROX_HOT", "PPROX_NONBLOCKING",
                            "PPROX_ECALL_BOUNDARY"};

  for (std::size_t ri = 0; ri < p.g.fns.size(); ++ri) {
    const cg::Fn& root = p.g.fns[ri];
    if (root.annotations == 0) continue;
    for (const RuleSpec& spec : kRules) {
      if ((root.annotations & spec.annotation) == 0) continue;
      if ((p.info[ri].reach & spec.kind) == 0) continue;
      // BFS over edges that let this effect through.
      std::vector<int> parent(p.g.fns.size(), -1);
      std::vector<bool> seen(p.g.fns.size(), false);
      std::queue<int> q;
      q.push(static_cast<int>(ri));
      seen[ri] = true;
      std::vector<int> order;
      while (!q.empty()) {
        const int v = q.front();
        q.pop();
        order.push_back(v);
        for (const auto& [t, mask] :
             p.info[static_cast<std::size_t>(v)].edges) {
          if ((mask & spec.kind) == 0) continue;
          if ((p.info[static_cast<std::size_t>(t)].reach & spec.kind) == 0) {
            continue;
          }
          if (!seen[static_cast<std::size_t>(t)]) {
            seen[static_cast<std::size_t>(t)] = true;
            parent[static_cast<std::size_t>(t)] = v;
            q.push(t);
          }
        }
      }
      const char* ann_name =
          spec.annotation == cg::kAnnHot
              ? kAnnName[0]
              : (spec.annotation == cg::kAnnNonblocking ? kAnnName[1]
                                                        : kAnnName[2]);
      for (int v : order) {
        const cg::Fn& leaf_fn = p.g.fns[static_cast<std::size_t>(v)];
        const Info& leaf_info = p.info[static_cast<std::size_t>(v)];
        if ((leaf_info.own & spec.kind) == 0) continue;
        const Leaf* leaf = nullptr;
        for (const Leaf& l : leaf_info.leaves) {
          if (l.kind == spec.kind) {
            leaf = &l;
            break;
          }
        }
        if (leaf == nullptr) continue;
        Finding f;
        f.rule = spec.rule;
        f.key = std::string(spec.rule) + "|" + root.qname + "|" +
                leaf_fn.qname + "|" + leaf->token;
        f.path = leaf_fn.file.empty() ? root.file : leaf_fn.file;
        f.line = leaf->line != 0 ? leaf->line : leaf_fn.line;
        f.chain = display_chain(p, parent, v);
        f.message = std::string(ann_name) + " " + root.qname + " reaches " +
                    spec.what + " '" + leaf->token + "': " + f.chain +
                    "; fix it, suppress the leaf line with // " +
                    "PPROX-HOTPATH-" + "OK(" + effect_name(spec.kind) +
                    "): <why>, or ratchet it in the --baseline file";
        findings.push_back(std::move(f));
      }
    }
  }
}

void analyze(const cg::Graph& g, const cg::Suppressions& sup,
             std::vector<Finding>& findings) {
  Pass p{g, sup, {}};
  extract_effects(p);
  resolve_calls(p);
  mark_recursion(p);
  propagate(p);
  collect_findings(p, findings);
}

}  // namespace

int run(const cg::Options& opts) {
  const cg::PassSpec spec{
      .mode = "hotpath",
      .anchor = "hotpath",
      .what = "hot-path",
      // Split so this tool's own sources never self-match.
      .marker = std::string("PPROX-HOTPATH-") + "OK(",
      .from_name = &effect_from_name,
      .bare_rule = "hotpath-bare-suppression",
      .bare_message = "hot-path suppression without a justification; write "
                      "PPROX-HOTPATH-" "OK(<effect>): <why> (the bare form "
                      "suppresses nothing)",
      .default_why = "baselined pre-existing violation; shrink, do not grow "
                     "(DESIGN.md §11.4)"};
  return cg::run_pass(spec, opts, &analyze);
}

}  // namespace hotpath
