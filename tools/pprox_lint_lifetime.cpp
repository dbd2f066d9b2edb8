// pprox_lint --lifetime — interprocedural lifetime/escape pass (DESIGN.md
// §14).
//
// PProx's hot path is built on transient views: requests are parsed in
// place, ciphertext and pseudonyms live only as long as a connection
// buffer, and the unlinkability argument assumes no request-derived state
// outlives its shuffle batch. A dangling std::string_view here is therefore
// a privacy bug, not just a crash. This pass makes the discipline
// checkable before the zero-copy network rebuild (ROADMAP item 1)
// multiplies the number of view edges. Reusing the shared call-graph front
// end (lint_callgraph.hpp), the pass
//
//   1. replays every function body span, classifying view-typed values
//      (std::string_view / std::span / ByteView / pointers & iterators
//      obtained via .data()/.c_str()/.begin()) by the *owner* of the bytes
//      they alias: a local owner object (std::string, Bytes, vector, stack
//      array, or an owning temporary), a parameter, an arena-flavored
//      connection/batch buffer, or a member;
//   2. records escape events — returning a view, storing a view or a
//      callable into a member, handing a lambda to a sink that outlives
//      the frame (ThreadPool::submit, ShuffleQueue::add, DetThread,
//      registered callbacks) — and propagates two interprocedural
//      summaries to a fixpoint with shortest witness chains:
//      "returns a view of parameter i" and "parameter i escapes the
//      caller's frame";
//   3. reports PPROX-LIFETIME-RETURN-LOCAL (a view-returning function
//      returns a view of a local or temporary, directly or through a
//      summarized callee), PPROX-LIFETIME-REF-CAPTURE-ESCAPE (a by-ref or
//      `this` lambda capture reaches an outliving sink; weak_ptr /
//      shared_from_this guards and member-owned sinks are recognized as
//      safe), PPROX-LIFETIME-VIEW-MEMBER (a view-typed data member — the
//      declaration itself is the hazard: the object does not own the
//      bytes), and PPROX-LIFETIME-ARENA-ESCAPE (a view of a per-connection
//      or per-batch buffer stored into state that survives the handler).
//
// Known soundness limits (DESIGN.md §14.5): classification is token-level
// (no real types), so owner-typed temporaries hidden behind helper calls
// are invisible, `auto` views are recognized only for .data()/.c_str()
// initializers, and container element types are approximated by method
// name (push_back stores as-is; append/assign/insert copy).
//
// Suppression (reason mandatory, the one policy of lint_callgraph.hpp: it
// covers its own line and the line below, and a comment block above the
// code covers the first line below the block); aspects are return /
// capture / member / arena:
//   std::string_view text_;  // PPROX-LIFETIME-OK(member): parser is
//                            // stack-local to parse(), never outlives text
// A bare suppression (no ": reason") is itself a finding and suppresses
// nothing. Baseline ratchet: --baseline FILE compares finding keys against
// tools/lifetime_baseline.json; only new keys fail. --baseline-write FILE
// regenerates the file, carrying over existing "why" justifications.
#include "lint_passes.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace lifetime {
namespace {

using cg::Finding;

// ---------------------------------------------------------------------------
// Aspects (the suppression vocabulary).
// ---------------------------------------------------------------------------

enum Aspect : unsigned {
  kReturn = 1u << 0,
  kCapture = 1u << 1,
  kMember = 1u << 2,
  kArena = 1u << 3,
};

unsigned aspect_from_name(const std::string& name) {
  if (name == "return") return kReturn;
  if (name == "capture") return kCapture;
  if (name == "member") return kMember;
  if (name == "arena") return kArena;
  return 0;
}

// ---------------------------------------------------------------------------
// Vocabulary tables.
// ---------------------------------------------------------------------------

/// Non-owning view types, matched by last name component.
const std::set<std::string> kViewTypeNames = {
    "string_view", "basic_string_view", "span", "ByteView", "MutByteView"};

/// Owning container/buffer types: a local of one of these owns its bytes,
/// and a *temporary* of one of these dies at the end of the statement.
const std::set<std::string> kOwnerTypeNames = {
    "string", "basic_string", "Bytes",  "vector",       "array",
    "deque",  "ostringstream", "stringstream", "to_string"};

/// Element-wise character/byte types whose stack arrays are local owners.
const std::set<std::string> kCharTypeNames = {"char", "uint8_t",
                                              "unsigned"};

/// Builtin sink calls: a callable argument outlives the calling frame.
/// ThreadPool::submit needs the name: it move-assigns the task into a ring
/// slot, a store the member scan below does not follow. The names also
/// keep fixtures self-contained.
const std::set<std::string> kSinkCallNames = {"submit", "enqueue",
                                              "dispatch", "defer"};

/// Member-container calls that store their argument *as-is* (a pushed
/// string_view stays a string_view). append/assign/insert are deliberately
/// absent: on the std containers they copy the range.
const std::set<std::string> kStoreCallNames = {"push_back", "emplace_back",
                                               "emplace", "push", "add"};

/// Member calls yielding a view/iterator of the receiver.
const std::set<std::string> kViewOfRecvNames = {
    "data", "c_str", "begin", "end", "cbegin", "cend", "substr"};

/// Identifiers never classified as value sources inside expressions.
const std::set<std::string> kSkipIdents = {
    "const",    "constexpr", "static",   "unsigned", "signed",  "long",
    "short",    "int",       "char",     "bool",     "auto",    "void",
    "float",    "double",    "struct",   "class",    "enum",    "std",
    "size_t",   "uint8_t",   "uint16_t", "uint32_t", "uint64_t",
    "int8_t",   "int16_t",   "int32_t",  "int64_t",  "true",    "false",
    "nullptr",  "this",      "sizeof",   "static_cast",
    "reinterpret_cast", "const_cast", "dynamic_cast", "move",    "forward",
    "if",       "else",      "for",      "while",    "switch",  "case",
    "return",   "new",       "delete",   "throw",    "noexcept", "mutable",
    "override", "final",     "volatile", "operator", "template", "typename",
};

const std::set<std::string> kNotACall = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "else", "do", "case", "goto", "new", "delete", "throw", "static_cast",
    "dynamic_cast", "reinterpret_cast", "const_cast", "decltype", "typeid",
    "noexcept", "alignas", "static_assert", "defined", "assert",
    "PPROX_HOT", "PPROX_NONBLOCKING", "PPROX_ECALL_BOUNDARY",
};

/// Builtin calls never resolved to scanned functions (same rationale as
/// the other call-graph passes).
const std::set<std::string> kTerminalCallNames = {
    "malloc", "calloc", "realloc", "strdup", "make_unique", "make_shared",
    "to_string", "reserve", "resize", "append", "assign", "insert",
    "stoi", "stol", "stoul", "stoull", "stod", "snprintf", "memcpy",
    "memset", "min", "max", "swap",
};

const std::set<std::string> kNeutralMemberNames = {
    "load",  "store", "exchange", "fetch_add", "fetch_sub", "clear",
    "empty", "get",   "size",     "length",    "front",     "back",
    "top",   "count", "contains", "erase",     "find",      "at",
    "lock",  "unlock", "reset",   "release",   "str",       "value",
    "ok",
};

bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/// Arena-flavored names: per-connection / per-batch buffers whose lifetime
/// is a protocol window, not an object. A *locally owned* buffer named
/// this way classifies as local first (the decl wins over the name).
bool arena_named(const std::string& n) {
  return n.find("arena") != std::string::npos ||
         n.find("buffer") != std::string::npos ||
         n.find("scratch") != std::string::npos || n == "buf" ||
         ends_with(n, "_buf") || ends_with(n, "buf_");
}

bool member_named(const std::string& n) {
  return n.size() > 1 && n.back() == '_';
}

bool weakish(const std::string& n) {
  return n.find("weak") != std::string::npos ||
         n == "shared_from_this" || n == "weak_from_this";
}

bool callable_type_tok(const std::string& t) {
  return t == "function" || ends_with(t, "Fn") || ends_with(t, "Handler") ||
         ends_with(t, "Callback") || ends_with(t, "callback");
}

// ---------------------------------------------------------------------------
// Data model.
// ---------------------------------------------------------------------------

/// Where the bytes behind a value live.
constexpr unsigned kSrcLocal = 1u << 0;  ///< local owner or owning temporary
constexpr unsigned kSrcArena = 1u << 1;  ///< connection/batch buffer
constexpr unsigned kSrcMember = 1u << 2;

constexpr unsigned kMaxParams = 24;

unsigned param_bit(std::size_t i) {
  return i < kMaxParams ? (1u << i) : 0u;
}

struct Src {
  unsigned kind = 0;        ///< kSrcLocal | kSrcArena | kSrcMember
  unsigned params = 0;      ///< bitmask of contributing parameters
  std::string name;         ///< identifier behind the strongest class
};

struct Witness {
  std::string chain;  ///< "f -> g -> leaf-fn"
  std::string file;
  std::size_t line = 0;
  std::string token;
};

struct Summary {
  unsigned ret_params = 0;  ///< returns a view of parameter i
  std::map<int, Witness> ret_w;
  unsigned escapes = 0;     ///< parameter i outlives the caller's frame
  std::map<int, Witness> esc_w;
};

struct LamInfo {
  bool is_lambda = false;
  bool byref_local = false;  ///< [&] or [&x]
  bool this_cap = false;
  bool guarded = false;  ///< shared_from_this / weak_from_this / *weak*
};

struct Arg {
  Src src;
  LamInfo lam;
};

struct CallSite {
  std::string name;
  bool member = false;
  bool in_return = false;     ///< `return f(...)` in a view-returning fn
  std::string recv_root;      ///< first receiver component, "" if none
  std::size_t line = 0;
  std::string file;
  unsigned mask = ~0u;  ///< aspects not suppressed at the call
  std::vector<Arg> args;
  std::vector<int> callees;
};

struct FnSig {
  std::vector<std::set<std::string>> param_names;
  std::vector<bool> param_view;
  std::vector<bool> param_callable;
  bool ret_is_view = false;
};

struct FnData {
  FnSig sig;
  std::vector<CallSite> calls;
  Summary sum;
};

struct Pass {
  const cg::Graph& g;
  const cg::Suppressions& sup;
  std::vector<FnData> data;
  std::vector<Finding> direct_findings;
  /// Member names declared with a view type / a callable type anywhere in
  /// scope: assignment to one of these stores the RHS as-is.
  std::set<std::string> view_member_names;
  std::set<std::string> callable_member_names;
};

// ---------------------------------------------------------------------------
// Signature extraction: parameter names/types and the return type.
// ---------------------------------------------------------------------------

/// Classifies the pieces of the shared parameter-list locator, then walks
/// further back from the function name to the return type.
void scan_signature(const std::vector<cg::Tok>& toks, const cg::Span& sp,
                    const std::string& fname_last, FnSig& sig) {
  const cg::ParamList list = cg::param_list(toks, sp, fname_last);

  // Return type: tokens between the previous statement boundary and the
  // function name. A view-type token or a '*' marks a view return.
  if (list.open >= 1) {
    std::size_t k = list.open - 1;  // function name token
    for (std::size_t steps = 0; steps < 40 && k > 0; ++steps) {
      --k;
      const std::string& t = toks[k].text;
      if (t == ";" || t == "{" || t == "}" || t == ")") break;
      if (kViewTypeNames.count(t) != 0 || t == "*") sig.ret_is_view = true;
    }
  }

  for (std::size_t pi = 0; pi < list.params.size(); ++pi) {
    const auto [b, e] = list.params[pi];
    bool is_view = false, is_callable = false;
    std::string name;
    for (std::size_t k = b; k < e; ++k) {
      const std::string& t = toks[k].text;
      if (kViewTypeNames.count(t) != 0) is_view = true;
      if (callable_type_tok(t)) is_callable = true;
      if (cg::is_ident_tok(t) && kSkipIdents.count(t) == 0 &&
          !(k > b && toks[k - 1].text == "::")) {
        name = t;  // last plain identifier wins: the parameter name
      }
    }
    if (name.empty()) continue;
    if (sig.param_names.size() <= pi) {
      sig.param_names.resize(pi + 1);
      sig.param_view.resize(pi + 1, false);
      sig.param_callable.resize(pi + 1, false);
    }
    sig.param_names[pi].insert(name);
    if (is_view) sig.param_view[pi] = true;
    if (is_callable) sig.param_callable[pi] = true;
  }
}

// ---------------------------------------------------------------------------
// View-member declaration scan (rule: lifetime-view-member).
// ---------------------------------------------------------------------------

void scan_members(Pass& p) {
  for (const cg::Tu& tu : p.g.tus) {
    const auto& toks = tu.toks;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      const bool is_view = kViewTypeNames.count(t) != 0;
      const bool is_callable = callable_type_tok(t);
      if (!is_view && !is_callable) continue;
      if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
        continue;  // member access, not a declaration
      }
      std::size_t k = i + 1;
      if (k < toks.size() && toks[k].text == "<") {
        k = cg::skip_template_args(toks, k, toks.size());
      }
      while (k < toks.size() &&
             (toks[k].text == "&" || toks[k].text == "*" ||
              toks[k].text == "const")) {
        ++k;
      }
      if (k + 1 >= toks.size() || !cg::is_ident_tok(toks[k].text)) continue;
      const std::string& name = toks[k].text;
      const std::string& nxt = toks[k + 1].text;
      if (!member_named(name)) continue;
      if (nxt != ";" && nxt != "=" && nxt != "{") continue;
      if (is_callable) {
        p.callable_member_names.insert(name);
        continue;
      }
      p.view_member_names.insert(name);
      if ((p.sup.at(tu.path, toks[k].line) & kMember) != 0) continue;
      Finding f;
      f.rule = "lifetime-view-member";
      f.key = "lifetime-view-member|" +
              fs::path(tu.path).filename().string() + "|" + name;
      f.path = tu.path;
      f.line = toks[k].line;
      f.chain = name;
      f.message =
          "PPROX-LIFETIME-VIEW-MEMBER: view-typed member '" + name +
          "' — the object does not own the bytes it aliases, so any use "
          "after the source buffer dies is a dangling read; own the bytes "
          "(std::string/Bytes), document the lifetime contract with "
          "// PPROX-LIFETIME-" "OK(member): <why>, or ratchet it in the "
          "--baseline file";
      p.direct_findings.push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Body replay: classification and escape-event extraction.
// ---------------------------------------------------------------------------

struct Replayer {
  Pass& p;
  int fi;
  const cg::Fn& fn;
  FnData& d;
  const std::vector<cg::Tok>& toks;
  const std::string& file;
  const cg::Span sp;

  std::set<std::string> local_owners;
  std::map<std::string, Src> view_vars;
  std::vector<std::pair<std::size_t, std::size_t>> lambda_bodies;
  // Per-BODY view-return flag. Overloads and #ifdef twins merge into one Fn
  // node; unioning ret_is_view across bodies would let a `const char*`
  // overload taint a `std::string` one (seen with pprox::to_string), so each
  // body is judged by its own declared return type.
  bool body_ret_view = false;

  Replayer(Pass& pass, int idx, const cg::Span& span)
      : p(pass),
        fi(idx),
        fn(pass.g.fns[static_cast<std::size_t>(idx)]),
        d(pass.data[static_cast<std::size_t>(idx)]),
        toks(pass.g.tus[static_cast<std::size_t>(span.tu)].toks),
        file(pass.g.tus[static_cast<std::size_t>(span.tu)].path),
        sp(span) {}

  const std::string& text(std::size_t at) const {
    static const std::string kEnd;
    return at < toks.size() ? toks[at].text : kEnd;
  }

  unsigned param_mask_of(const std::string& n) const {
    for (std::size_t i = 0; i < d.sig.param_names.size(); ++i) {
      if (d.sig.param_names[i].count(n) != 0) return param_bit(i);
    }
    return 0;
  }

  bool in_lambda(std::size_t at) const {
    for (const auto& [b, e] : lambda_bodies) {
      if (at > b && at < e) return true;
    }
    return false;
  }

  /// Classifies one identifier as a byte-source.
  void classify_ident(const std::string& n, Src& out) const {
    auto strengthen = [&](unsigned bit) {
      if ((out.kind & bit) == 0 || out.name.empty()) out.name = n;
      out.kind |= bit;
    };
    const auto vit = view_vars.find(n);
    if (vit != view_vars.end()) {
      if (vit->second.kind != 0 && out.name.empty()) {
        out.name = vit->second.name;
      }
      out.kind |= vit->second.kind;
      out.params |= vit->second.params;
      return;
    }
    if (local_owners.count(n) != 0) {
      strengthen(kSrcLocal);
      return;
    }
    const unsigned pm = param_mask_of(n);
    if (pm != 0) {
      out.params |= pm;
      if (out.name.empty()) out.name = n;
      return;
    }
    if (arena_named(n)) {
      strengthen(kSrcArena);
      return;
    }
    if (member_named(n)) {
      out.kind |= kSrcMember;
      if (out.name.empty()) out.name = n;
    }
  }

  /// Classifies an expression token range [b, e): unions the sources of
  /// every contributing identifier. Call names are skipped, except
  /// owner-type "calls" which are owning temporaries (kSrcLocal).
  Src classify_expr(std::size_t b, std::size_t e) const {
    Src out;
    for (std::size_t k = b; k < e && k < b + 120; ++k) {
      const std::string& t = toks[k].text;
      if (!cg::is_ident_tok(t)) continue;
      if (kSkipIdents.count(t) != 0) continue;
      const bool qualifier = text(k + 1) == "::";
      if (qualifier) continue;
      const bool called = text(k + 1) == "(" || text(k + 1) == "{";
      if (called) {
        if (kOwnerTypeNames.count(t) != 0) {
          out.kind |= kSrcLocal;
          if (out.name.empty()) out.name = t + "(...)";
        }
        continue;  // other call results are classified via their arguments
      }
      classify_ident(t, out);
    }
    return out;
  }

  std::size_t match_forward(std::size_t open) const {
    return cg::match_close(toks, open, toks.size());
  }

  /// The ';' that ends the statement whose tokens follow `head`, looking at
  /// most 119 tokens ahead and never past the body.
  std::size_t statement_end(std::size_t head) const {
    std::size_t e = head + 1;
    int depth = 0;
    while (e < sp.end && e < head + 120) {
      const std::string& t = toks[e].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (t == ";" && depth <= 0) break;
      ++e;
    }
    return e;
  }

  /// Parses a lambda introducer starting at `[` (index lb). Returns the
  /// index just past the lambda body's closing '}' (or past ']' when no
  /// body follows), filling `info`.
  std::size_t parse_lambda(std::size_t lb, LamInfo& info) {
    info.is_lambda = true;
    const std::size_t rb = match_forward(lb);
    bool expect_name = false;  // previous token was '&'
    for (std::size_t k = lb + 1; k < rb; ++k) {
      const std::string& t = toks[k].text;
      if (t == "&") {
        info.byref_local = true;  // [&] or [&x]
        expect_name = true;
        continue;
      }
      if (t == "this") {
        info.this_cap = true;
        expect_name = false;
        continue;
      }
      if (cg::is_ident_tok(t)) {
        if (weakish(t)) info.guarded = true;
        if (expect_name && weakish(t)) info.byref_local = false;
        expect_name = false;
      }
    }
    // Init captures referencing shared_from_this(): scan a few tokens for
    // the guard even past nested parens ("self = shared_from_this()").
    for (std::size_t k = lb + 1; k < rb + 1 && k < toks.size(); ++k) {
      if (weakish(toks[k].text)) info.guarded = true;
    }
    // Skip optional (params), specifiers, -> type, then the body.
    std::size_t k = rb + 1;
    if (text(k) == "(") k = match_forward(k) + 1;
    for (std::size_t steps = 0; steps < 8 && k < toks.size(); ++steps) {
      if (text(k) == "{") break;
      ++k;
    }
    if (text(k) == "{") {
      const std::size_t body_end = match_forward(k);
      lambda_bodies.push_back({k, body_end});
      return body_end + 1;
    }
    return rb + 1;
  }

  /// Collects top-level arguments of a call whose '(' is at `open`,
  /// classifying each and parsing lambdas.
  std::vector<Arg> collect_args(std::size_t open, std::size_t close) {
    std::vector<Arg> args;
    int depth = 0;
    std::size_t start = open + 1;
    auto flush = [&](std::size_t e) {
      if (start >= e) return;
      Arg a;
      if (text(start) == "[" ||
          (text(start) == "std" && text(start + 1) == "::" &&
           text(start + 2) == "move" && text(start + 3) == "(" &&
           text(start + 4) == "[")) {
        // direct lambda or std::move(lambda) — rare but cheap to accept
        const std::size_t lb = text(start) == "[" ? start : start + 4;
        parse_lambda(lb, a.lam);
      } else {
        a.src = classify_expr(start, e);
      }
      args.push_back(std::move(a));
    };
    for (std::size_t k = open + 1; k < close; ++k) {
      const std::string& t = toks[k].text;
      if (t == "(" || t == "[" || t == "{") {
        if (t == "[" && depth == 0 && k == start) {
          // lambda argument: skip its whole extent so its internal commas
          // do not split the argument list
          LamInfo scratch;
          const std::size_t past = parse_lambda(k, scratch);
          k = past - 1;
          continue;
        }
        ++depth;
        continue;
      }
      if (t == ")" || t == "]" || t == "}") {
        --depth;
        continue;
      }
      if (t == "," && depth == 0) {
        flush(k);
        start = k + 1;
      }
    }
    flush(close);
    return args;
  }

  void emit(const char* rule, unsigned aspect, const std::string& key_tail,
            std::size_t line, const std::string& chain,
            const std::string& message) {
    if ((p.sup.at(file, line) & aspect) != 0) return;
    Finding f;
    f.rule = rule;
    f.key = std::string(rule) + "|" + fn.qname + "|" + key_tail;
    f.path = file;
    f.line = line;
    f.chain = chain;
    f.message = message;
    p.direct_findings.push_back(std::move(f));
  }

  void seed_escape(std::size_t pi, std::size_t line,
                   const std::string& target) {
    const int bit_index = static_cast<int>(pi);
    if (param_bit(pi) == 0) return;
    if ((d.sum.escapes & param_bit(pi)) != 0) return;
    d.sum.escapes |= param_bit(pi);
    d.sum.esc_w[bit_index] = {fn.qname, file, line, target};
  }

  void handle_return(std::size_t& i);
  void handle_call(std::size_t i, std::size_t j, const std::string& name);
  void run();
};

void Replayer::handle_return(std::size_t& i) {
  // i points at `return`. Scan the expression up to ';'.
  const std::size_t e = statement_end(i);
  const std::size_t b = i + 1;
  const std::size_t line = toks[i].line;
  if (b >= e || !body_ret_view || in_lambda(i)) {
    i = e;
    return;
  }

  // `return f(args...)` — leading callable path?
  std::size_t k = b;
  std::string name;
  if (cg::is_ident_tok(text(k)) && kSkipIdents.count(text(k)) == 0) {
    const std::size_t j = cg::read_qualified(toks, k, e, name);
    if (text(j) == "(") {
      const std::string last = cg::last_component(name);
      const std::size_t close = match_forward(j);
      if (kViewTypeNames.count(last) != 0) {
        // view construction: classify the constructor arguments directly
        const Src s = classify_expr(j + 1, close);
        if ((s.kind & kSrcLocal) != 0) {
          emit("lifetime-return-local", kReturn, s.name, line, fn.qname,
               "PPROX-LIFETIME-RETURN-LOCAL: " + fn.qname +
                   " returns a view of local '" + s.name +
                   "' — the bytes die with the frame; return an owning "
                   "type, suppress with // PPROX-LIFETIME-" "OK(return): "
                   "<why>, or ratchet it in the --baseline file");
        }
        d.sum.ret_params |= s.params;
        for (std::size_t pi = 0; pi < kMaxParams; ++pi) {
          if ((s.params & param_bit(pi)) != 0 &&
              d.sum.ret_w.count(static_cast<int>(pi)) == 0) {
            d.sum.ret_w[static_cast<int>(pi)] = {fn.qname, file, line,
                                                 "return " + s.name};
          }
        }
        i = e;
        return;
      }
      if (kOwnerTypeNames.count(last) != 0) {
        emit("lifetime-return-local", kReturn, last + "-temp", line,
             fn.qname,
             "PPROX-LIFETIME-RETURN-LOCAL: " + fn.qname +
                 " returns a view of an owning temporary (" + last +
                 ") — the temporary dies at the end of the return "
                 "statement; return the owning type itself, suppress with "
                 "// PPROX-LIFETIME-" "OK(return): <why>, or ratchet it in "
                 "the --baseline file");
        i = e;
        return;
      }
      if (kTerminalCallNames.count(last) == 0 &&
          kNeutralMemberNames.count(last) == 0) {
        // Scanned-function call: resolved + evaluated after the fixpoint.
        CallSite cs;
        cs.name = name;
        cs.member = toks[k - 1].text == "." || toks[k - 1].text == "->";
        cs.in_return = true;
        cs.line = line;
        cs.file = file;
        cs.mask = ~p.sup.at(file, line);
        cs.args = collect_args(j, close);
        d.calls.push_back(std::move(cs));
        i = e;
        return;
      }
    }
  }

  // Plain expression: classify it directly.
  const Src s = classify_expr(b, e);
  if ((s.kind & (kSrcLocal | kSrcArena)) != 0) {
    const bool arena_only =
        (s.kind & kSrcLocal) == 0 && (s.kind & kSrcArena) != 0;
    // Returning an arena view *upward* is the caller's decision; only a
    // local-owner view is unconditionally dead at return.
    if (!arena_only) {
      emit("lifetime-return-local", kReturn, s.name, line, fn.qname,
           "PPROX-LIFETIME-RETURN-LOCAL: " + fn.qname +
               " returns a view of local '" + s.name +
               "' — the bytes die with the frame; return an owning type, "
               "suppress with // PPROX-LIFETIME-" "OK(return): <why>, or "
               "ratchet it in the --baseline file");
    }
  }
  d.sum.ret_params |= s.params;
  for (std::size_t pi = 0; pi < kMaxParams; ++pi) {
    if ((s.params & param_bit(pi)) != 0 &&
        d.sum.ret_w.count(static_cast<int>(pi)) == 0) {
      d.sum.ret_w[static_cast<int>(pi)] = {fn.qname, file, line,
                                           "return " + s.name};
    }
  }
  i = e;
}

void Replayer::handle_call(std::size_t i, std::size_t j,
                           const std::string& name) {
  // toks[j] == "(" — the call's argument list opener.
  const std::string last = cg::last_component(name);
  const std::size_t line = toks[i].line;
  const std::size_t close = match_forward(j);
  const bool member =
      i > sp.begin && (toks[i - 1].text == "." || toks[i - 1].text == "->");

  std::string recv_root;
  if (member) {
    std::size_t k = i;
    while (k >= 2 && (toks[k - 1].text == "." || toks[k - 1].text == "->")) {
      std::size_t m = k - 2;
      if (toks[m].text == ")") break;  // f().x — receiver is a temporary
      // Skip a balanced subscript so `cpus_[idx]->submit(...)` roots at
      // the container member, not at the `]`.
      if (toks[m].text == "]") {
        int depth = 1;
        while (m > sp.begin && depth > 0) {
          --m;
          if (toks[m].text == "]") ++depth;
          if (toks[m].text == "[") --depth;
        }
        if (depth != 0 || m == sp.begin) break;
        --m;
      }
      if (!cg::is_ident_tok(toks[m].text)) break;
      recv_root = toks[m].text;
      k = m;
    }
  }

  const bool sink_builtin =
      kSinkCallNames.count(last) != 0 ||
      (last == "add" && member &&
       (recv_root.find("queue") != std::string::npos ||
        recv_root.find("shuffle") != std::string::npos));
  const bool store_member =
      kStoreCallNames.count(last) != 0 && member && member_named(recv_root);

  if (sink_builtin || store_member) {
    const std::vector<Arg> args = collect_args(j, close);
    const unsigned mask = ~p.sup.at(file, line);
    const std::string sink_txt =
        (member ? recv_root + "." : std::string()) + last;
    for (std::size_t ai = 0; ai < args.size(); ++ai) {
      const Arg& a = args[ai];
      if (a.lam.is_lambda) {
        if (a.lam.guarded) continue;
        const bool this_unsafe =
            a.lam.this_cap && !(member && member_named(recv_root));
        if ((a.lam.byref_local || this_unsafe) && (mask & kCapture) != 0) {
          Finding f;
          f.rule = "lifetime-ref-capture-escape";
          f.key = "lifetime-ref-capture-escape|" + fn.qname + "|" + sink_txt;
          f.path = file;
          f.line = line;
          f.chain = fn.qname + " -> " + sink_txt;
          f.message =
              "PPROX-LIFETIME-REF-CAPTURE-ESCAPE: lambda handed to '" +
              sink_txt + "' in " + fn.qname +
              (a.lam.byref_local
                   ? " captures locals by reference"
                   : " captures 'this' into a sink the object does not "
                     "own") +
              " — the callback outlives the frame; capture by value, pin "
              "with shared_from_this()/weak_ptr, suppress with "
              "// PPROX-LIFETIME-" "OK(capture): <why>, or ratchet it in "
              "the --baseline file";
          p.direct_findings.push_back(std::move(f));
        }
        continue;
      }
      if ((a.src.kind & kSrcArena) != 0 && store_member &&
          (mask & kArena) != 0) {
        Finding f;
        f.rule = "lifetime-arena-escape";
        f.key = "lifetime-arena-escape|" + fn.qname + "|" + recv_root;
        f.path = file;
        f.line = line;
        f.chain = fn.qname + " -> " + sink_txt;
        f.message =
            "PPROX-LIFETIME-ARENA-ESCAPE: view of per-connection/batch "
            "buffer '" + a.src.name + "' stored into '" + recv_root +
            "' in " + fn.qname +
            " — the buffer is recycled when the handler returns; copy the "
            "bytes, suppress with // PPROX-LIFETIME-" "OK(arena): <why>, "
            "or ratchet it in the --baseline file";
        p.direct_findings.push_back(std::move(f));
      }
      // A parameter stored as-is into a member container escapes — but
      // only view/callable parameters carry lifetime (a pushed int or
      // string is copied by value).
      for (std::size_t pi = 0; pi < d.sig.param_names.size(); ++pi) {
        if ((a.src.params & param_bit(pi)) != 0 &&
            (d.sig.param_view[pi] || d.sig.param_callable[pi])) {
          seed_escape(pi, line, sink_txt);
        }
      }
    }
    return;
  }

  // DetThread construction: the callable runs on another thread. `this`
  // capture is safe (the join-before-destruction discipline pins it);
  // by-ref locals are not.
  if (last == "DetThread" || last == "thread") {
    const std::vector<Arg> args = collect_args(j, close);
    const unsigned mask = ~p.sup.at(file, line);
    for (const Arg& a : args) {
      if (a.lam.is_lambda && a.lam.byref_local && !a.lam.guarded &&
          (mask & kCapture) != 0) {
        Finding f;
        f.rule = "lifetime-ref-capture-escape";
        f.key = "lifetime-ref-capture-escape|" + fn.qname + "|" + last;
        f.path = file;
        f.line = line;
        f.chain = fn.qname + " -> " + last;
        f.message =
            "PPROX-LIFETIME-REF-CAPTURE-ESCAPE: thread body in " +
            fn.qname +
            " captures locals by reference — the thread can outlive the "
            "frame; capture by value, suppress with // PPROX-LIFETIME-"
            "OK(capture): <why>, or ratchet it in the --baseline file";
        p.direct_findings.push_back(std::move(f));
      }
      for (std::size_t pi = 0; pi < d.sig.param_names.size(); ++pi) {
        if ((a.src.params & param_bit(pi)) != 0 &&
            d.sig.param_callable[pi]) {
          seed_escape(pi, line, last);
        }
      }
    }
    return;
  }

  if (kTerminalCallNames.count(last) != 0) return;
  if (member && kNeutralMemberNames.count(last) != 0) return;

  // Generic scanned-function call: record the site for resolution and
  // post-fixpoint evaluation.
  CallSite cs;
  cs.name = name;
  cs.member = member;
  cs.recv_root = recv_root;
  cs.line = line;
  cs.file = file;
  cs.mask = ~p.sup.at(file, line);
  cs.args = collect_args(j, close);
  bool interesting = false;
  for (const Arg& a : cs.args) {
    if (a.lam.is_lambda || a.src.kind != 0 || a.src.params != 0) {
      interesting = true;
      break;
    }
  }
  if (interesting) d.calls.push_back(std::move(cs));
}

void Replayer::run() {
  std::size_t i = sp.begin;
  while (i < sp.end) {
    const std::string& t = toks[i].text;
    if (t == "return") {
      const std::size_t before = i;
      handle_return(i);
      if (i == before) ++i;
      continue;
    }
    if (t == "[") {
      // Standalone lambda (not inside a recorded call argument): register
      // its body so `return` statements inside it are not attributed to
      // the enclosing function. The walk still descends into the body.
      const std::string& prev = i > sp.begin ? toks[i - 1].text : t;
      if (prev == "=" || prev == "(" || prev == "," || prev == "{" ||
          prev == "return") {
        LamInfo scratch;
        (void)parse_lambda(i, scratch);
      }
      ++i;
      continue;
    }
    if (!cg::is_ident_tok(t) || kNotACall.count(t) != 0) {
      ++i;
      continue;
    }

    // Absolute-qualified global call (`::send(fd, ...)`): a libc/syscall,
    // not a scanned function — resolving it by last component would alias
    // it onto unrelated class methods (TcpChannel::send). Skip the head;
    // the walk still descends into the argument tokens.
    if (cg::is_global_name(toks, i)) {
      ++i;
      continue;
    }

    std::string name;
    const std::size_t j = cg::read_qualified(toks, i, toks.size(), name);
    const std::string last = cg::last_component(name);

    // Local owner declaration: `std::string s ...`, `Bytes b{...}`,
    // `char buf[256]`.
    if (kOwnerTypeNames.count(last) != 0 ||
        kCharTypeNames.count(last) != 0) {
      std::size_t k = j;
      if (text(k) == "<") k = match_forward(k) + 1;
      bool ref = false;
      while (text(k) == "&" || text(k) == "*" || text(k) == "const" ||
             text(k) == "char") {
        if (text(k) == "&" || text(k) == "*") ref = true;
        ++k;
      }
      if (cg::is_ident_tok(text(k)) && kSkipIdents.count(text(k)) == 0) {
        const std::string& nxt = text(k + 1);
        const bool decl = nxt == ";" || nxt == "=" || nxt == "{" ||
                          nxt == "(" || nxt == "[";
        if (decl && !ref) local_owners.insert(text(k));
        if (decl) {
          i = k + 1;
          continue;
        }
      }
      i = j;
      continue;
    }

    // View-typed local declaration: classify the initializer.
    if (kViewTypeNames.count(last) != 0 && !in_lambda(i)) {
      std::size_t k = j;
      if (text(k) == "<") k = match_forward(k) + 1;
      while (text(k) == "&" || text(k) == "const") ++k;
      if (cg::is_ident_tok(text(k)) && kSkipIdents.count(text(k)) == 0 &&
          (text(k + 1) == "=" || text(k + 1) == "{" ||
           text(k + 1) == "(")) {
        const std::string var = text(k);
        const std::size_t e = statement_end(k);
        Src s = classify_expr(k + 1, e);
        s.name = s.name.empty() ? var : s.name;
        view_vars[var] = s;
        i = e;
        continue;
      }
      i = j;
      continue;
    }

    // Member assignment: `x_ = expr` where x_ is a known view/callable
    // member — the RHS is stored as-is.
    if (member_named(t) && text(j) == "=" && text(j + 1) != "=" &&
        (i == sp.begin || toks[i - 1].text != ".") &&
        (p.view_member_names.count(t) != 0 ||
         p.callable_member_names.count(t) != 0)) {
      const std::size_t e = statement_end(j);
      const Src s = classify_expr(j + 1, e);
      if ((s.kind & kSrcArena) != 0 &&
          (p.sup.at(file, toks[i].line) & kArena) == 0) {
        Finding f;
        f.rule = "lifetime-arena-escape";
        f.key = "lifetime-arena-escape|" + fn.qname + "|" + t;
        f.path = file;
        f.line = toks[i].line;
        f.chain = fn.qname;
        f.message =
            "PPROX-LIFETIME-ARENA-ESCAPE: view of per-connection/batch "
            "buffer '" + s.name + "' stored into member '" + t + "' in " +
            fn.qname +
            " — the buffer is recycled when the handler returns; copy the "
            "bytes, suppress with // PPROX-LIFETIME-" "OK(arena): <why>, "
            "or ratchet it in the --baseline file";
        p.direct_findings.push_back(std::move(f));
      }
      for (std::size_t pi = 0; pi < d.sig.param_names.size(); ++pi) {
        if ((s.params & param_bit(pi)) != 0 &&
            (d.sig.param_view[pi] || d.sig.param_callable[pi])) {
          seed_escape(pi, toks[i].line, t);
        }
      }
      i = e;
      continue;
    }

    const bool call = text(j) == "(";
    if (call) handle_call(i, j, name);
    i = j;
    if (call) ++i;  // step past '(' so nested calls inside args are seen
  }
}

void extract_events(Pass& p) {
  p.data.assign(p.g.fns.size(), FnData{});
  for (std::size_t fi = 0; fi < p.g.fns.size(); ++fi) {
    const cg::Fn& fn = p.g.fns[fi];
    FnData& d = p.data[fi];
    // One signature scan per body: param info unions into the shared sig,
    // but each body keeps its own ret_is_view (see Replayer::body_ret_view).
    std::vector<bool> body_ret;
    for (const cg::Span& sp : fn.bodies) {
      FnSig bsig;
      scan_signature(p.g.tus[static_cast<std::size_t>(sp.tu)].toks, sp,
                     cg::last_component(fn.qname), bsig);
      body_ret.push_back(bsig.ret_is_view);
      d.sig.ret_is_view = d.sig.ret_is_view || bsig.ret_is_view;
      for (std::size_t pi = 0; pi < bsig.param_names.size(); ++pi) {
        if (d.sig.param_names.size() <= pi) {
          d.sig.param_names.push_back(bsig.param_names[pi]);
          d.sig.param_view.push_back(bsig.param_view[pi]);
          d.sig.param_callable.push_back(bsig.param_callable[pi]);
        } else {
          d.sig.param_names[pi].insert(bsig.param_names[pi].begin(),
                                       bsig.param_names[pi].end());
          d.sig.param_view[pi] = d.sig.param_view[pi] || bsig.param_view[pi];
          d.sig.param_callable[pi] =
              d.sig.param_callable[pi] || bsig.param_callable[pi];
        }
      }
    }
    for (std::size_t bi = 0; bi < fn.bodies.size(); ++bi) {
      Replayer r(p, static_cast<int>(fi), fn.bodies[bi]);
      r.body_ret_view = body_ret[bi];
      r.run();
    }
  }
}

void resolve_calls(Pass& p) {
  const auto by_last = cg::index_by_last(p.g);
  for (std::size_t i = 0; i < p.g.fns.size(); ++i) {
    for (CallSite& cs : p.data[i].calls) {
      cs.callees = cg::resolve_name(p.g, by_last, p.g.fns[i], cs.name);
    }
  }
}

// ---------------------------------------------------------------------------
// Fixpoint: returns-view-of-param and escapes-param summaries.
// ---------------------------------------------------------------------------

void propagate_summaries(Pass& p) {
  bool changed = true;
  std::size_t guard = 0;
  while (changed && guard++ < p.g.fns.size() + 8) {
    changed = false;
    for (std::size_t i = 0; i < p.g.fns.size(); ++i) {
      const cg::Fn& fn = p.g.fns[i];
      FnData& d = p.data[i];
      for (const CallSite& cs : d.calls) {
        for (int ci : cs.callees) {
          const Summary& csum = p.data[static_cast<std::size_t>(ci)].sum;
          for (std::size_t aj = 0; aj < cs.args.size(); ++aj) {
            const Arg& a = cs.args[aj];
            // Callee returns a view of arg aj, and we return that call:
            // our return aliases whatever arg aj aliases.
            if (cs.in_return && (csum.ret_params & param_bit(aj)) != 0) {
              const unsigned add = a.src.params & ~d.sum.ret_params;
              if (add != 0) {
                d.sum.ret_params |= add;
                for (std::size_t pi = 0; pi < kMaxParams; ++pi) {
                  if ((add & param_bit(pi)) == 0) continue;
                  Witness w =
                      csum.ret_w.count(static_cast<int>(aj)) != 0
                          ? csum.ret_w.at(static_cast<int>(aj))
                          : Witness{fn.qname, cs.file, cs.line, cs.name};
                  w.chain = fn.qname + " -> " + w.chain;
                  d.sum.ret_w[static_cast<int>(pi)] = std::move(w);
                }
                changed = true;
              }
            }
            // Callee lets arg aj escape: whatever parameters feed it
            // escape from us too.
            if ((csum.escapes & param_bit(aj)) != 0) {
              for (std::size_t pi = 0; pi < d.sig.param_names.size();
                   ++pi) {
                if ((a.src.params & param_bit(pi)) == 0) continue;
                if (!d.sig.param_view[pi] && !d.sig.param_callable[pi]) {
                  continue;
                }
                if ((d.sum.escapes & param_bit(pi)) != 0) continue;
                d.sum.escapes |= param_bit(pi);
                Witness w =
                    csum.esc_w.count(static_cast<int>(aj)) != 0
                        ? csum.esc_w.at(static_cast<int>(aj))
                        : Witness{fn.qname, cs.file, cs.line, cs.name};
                w.chain = fn.qname + " -> " + w.chain;
                d.sum.esc_w[static_cast<int>(pi)] = std::move(w);
                changed = true;
              }
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Post-fixpoint findings at call sites.
// ---------------------------------------------------------------------------

void collect_call_findings(const Pass& p, std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < p.g.fns.size(); ++i) {
    const cg::Fn& fn = p.g.fns[i];
    const FnData& d = p.data[i];
    for (const CallSite& cs : d.calls) {
      for (int ci : cs.callees) {
        const cg::Fn& callee = p.g.fns[static_cast<std::size_t>(ci)];
        const Summary& csum = p.data[static_cast<std::size_t>(ci)].sum;
        for (std::size_t aj = 0; aj < cs.args.size(); ++aj) {
          const Arg& a = cs.args[aj];
          // return f(local): f returns a view of arg aj, and the bytes
          // behind arg aj die with this frame.
          if (cs.in_return && (csum.ret_params & param_bit(aj)) != 0 &&
              (a.src.kind & kSrcLocal) != 0 && (cs.mask & kReturn) != 0) {
            Witness w = csum.ret_w.count(static_cast<int>(aj)) != 0
                            ? csum.ret_w.at(static_cast<int>(aj))
                            : Witness{callee.qname, cs.file, cs.line,
                                      cs.name};
            Finding f;
            f.rule = "lifetime-return-local";
            f.key = "lifetime-return-local|" + fn.qname + "|" +
                    callee.qname;
            f.path = cs.file;
            f.line = cs.line;
            f.chain = fn.qname + " -> " + w.chain;
            f.message =
                "PPROX-LIFETIME-RETURN-LOCAL: " + fn.qname +
                " returns a view of local '" + a.src.name + "' via " +
                fn.qname + " -> " + w.chain +
                " — the bytes die with the frame; return an owning type, "
                "suppress with // PPROX-LIFETIME-" "OK(return): <why>, or "
                "ratchet it in the --baseline file";
            findings.push_back(std::move(f));
          }
          // f(lambda): f stores arg aj past its return.
          if ((csum.escapes & param_bit(aj)) != 0 && a.lam.is_lambda &&
              !a.lam.guarded && (cs.mask & kCapture) != 0) {
            const bool recv_member =
                cs.member && member_named(cs.recv_root);
            const bool this_unsafe = a.lam.this_cap && !recv_member;
            if (a.lam.byref_local || this_unsafe) {
              Witness w = csum.esc_w.count(static_cast<int>(aj)) != 0
                              ? csum.esc_w.at(static_cast<int>(aj))
                              : Witness{callee.qname, cs.file, cs.line,
                                        cs.name};
              Finding f;
              f.rule = "lifetime-ref-capture-escape";
              f.key = "lifetime-ref-capture-escape|" + fn.qname + "|" +
                      callee.qname;
              f.path = cs.file;
              f.line = cs.line;
              f.chain = fn.qname + " -> " + w.chain;
              f.message =
                  "PPROX-LIFETIME-REF-CAPTURE-ESCAPE: lambda passed to " +
                  callee.qname + " in " + fn.qname +
                  (a.lam.byref_local
                       ? " captures locals by reference"
                       : " captures 'this' into a sink the object does "
                         "not own") +
                  " and the callee stores it past its return (" +
                  fn.qname + " -> " + w.chain +
                  ") — capture by value, pin with shared_from_this()/"
                  "weak_ptr, suppress with // PPROX-LIFETIME-"
                  "OK(capture): <why>, or ratchet it in the --baseline "
                  "file";
              findings.push_back(std::move(f));
            }
          }
          // f(view-of-arena): f stores arg aj past its return.
          if ((csum.escapes & param_bit(aj)) != 0 &&
              (a.src.kind & kSrcArena) != 0 && (cs.mask & kArena) != 0) {
            Witness w = csum.esc_w.count(static_cast<int>(aj)) != 0
                            ? csum.esc_w.at(static_cast<int>(aj))
                            : Witness{callee.qname, cs.file, cs.line,
                                      cs.name};
            Finding f;
            f.rule = "lifetime-arena-escape";
            f.key = "lifetime-arena-escape|" + fn.qname + "|" +
                    callee.qname;
            f.path = cs.file;
            f.line = cs.line;
            f.chain = fn.qname + " -> " + w.chain;
            f.message =
                "PPROX-LIFETIME-ARENA-ESCAPE: view of per-connection/"
                "batch buffer '" + a.src.name + "' passed to " +
                callee.qname + " which stores it past its return (" +
                fn.qname + " -> " + w.chain +
                ") — the buffer is recycled when the handler returns; "
                "copy the bytes, suppress with // PPROX-LIFETIME-"
                "OK(arena): <why>, or ratchet it in the --baseline file";
            findings.push_back(std::move(f));
          }
        }
      }
    }
  }
}

void analyze(const cg::Graph& g, const cg::Suppressions& sup,
             std::vector<Finding>& findings) {
  Pass p{g, sup, {}, {}, {}, {}};
  scan_members(p);
  extract_events(p);
  resolve_calls(p);
  propagate_summaries(p);

  for (Finding& f : p.direct_findings) findings.push_back(std::move(f));
  collect_call_findings(p, findings);
}

}  // namespace

int run(const cg::Options& opts) {
  const cg::PassSpec spec{
      .mode = "lifetime",
      .anchor = "lifetime",
      .what = "lifetime",
      // Split so this tool's own sources never self-match.
      .marker = std::string("PPROX-LIFETIME-") + "OK(",
      .from_name = &aspect_from_name,
      .bare_rule = "lifetime-bare-suppression",
      .bare_message = "lifetime suppression without a justification; write "
                      "PPROX-LIFETIME-" "OK(<aspect>): <why> (the bare form "
                      "suppresses nothing)",
      .default_why = "baselined pre-existing violation; shrink, do not grow "
                     "(DESIGN.md §14.4)"};
  return cg::run_pass(spec, opts, &analyze);
}

}  // namespace lifetime
