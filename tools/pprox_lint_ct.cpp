// pprox_lint --ct — interprocedural constant-time analyzer (DESIGN.md §13).
//
// Fifth pass over the shared call-graph front end (lint_callgraph.hpp).
// Tracks *secret taint* from sources to timing-relevant sinks:
//
//   sources   parameters/locals whose names carry key/secret/pseudonym
//             material, and variables declared with secret-bearing types
//             (Aes, AesGcm, RsaPrivateKey, RsaKeyPair, Drbg, Sensitive);
//   flow      statement-level assignments (flow-insensitive, monotone),
//             member access and member-call results on tainted receivers,
//             memcpy/memmove source->destination, and interprocedural
//             per-function summaries — param->return, param->out-param,
//             param->sink — propagated to a global fixpoint;
//   sinks     branch conditions and loop bounds (ct-branch), array
//             subscripts (ct-index), and variable-latency operations —
//             '/', '%', BigInt::compare/divmod/modinv — on tainted
//             operands (ct-varlat). A call into a function whose summary
//             says "param i reaches a sink" fires at the call site when the
//             argument is tainted, with the full witness chain.
//
// Taint is laundered only by the crypto/ct.hpp vocabulary (ct_equal,
// ct_select_*, ct_mask_*, ct_eq_*, ct_lt_*, ct_is_zero, ct_reveal,
// secure_wipe): their results are public by construction, which is what
// makes the branch-free unpad/compare idiom lint-clean. Container/operand
// *structure* queries (.size(), .empty(), .count(), .find(), .end(),
// BigInt::bit_length/is_zero/is_odd) also return public values — lengths
// and layout are public in the PProx framing model; contents re-seed taint
// at use sites through names and types. Soundness limits (ternaries,
// control-dependence, strong updates) are spelled out in DESIGN.md §13.5.
//
// Suppression (offending line, reason mandatory, same contract as the
// other passes): aspects are branch / index / varlat:
//   if (m1 >= m2) {  // PPROX-CT-OK(branch): CRT recombination, see §13.4
// A bare suppression is itself a finding and suppresses nothing. A
// suppressed sink also drops out of the function's summary, so transitive
// reports through it disappear with the same justification. Baseline
// ratchet: --baseline tools/ct_baseline.json; keys are line-free
// rule|root|leaf|token. Exit 0/1/2 as usual.
#include "lint_passes.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace ct {
namespace {

using cg::Finding;

// ---------------------------------------------------------------------------
// Aspects (the suppression vocabulary) and sink kinds.
// ---------------------------------------------------------------------------

enum Aspect : unsigned {
  kBranchA = 1u << 0,
  kIndexA = 1u << 1,
  kVarlatA = 1u << 2,
};
constexpr unsigned kAllAspects = kBranchA | kIndexA | kVarlatA;

unsigned aspect_from_name(const std::string& name) {
  if (name == "branch") return kBranchA;
  if (name == "index") return kIndexA;
  if (name == "varlat") return kVarlatA;
  return 0;
}

enum SinkKind : int { kSinkBranch = 0, kSinkIndex = 1, kSinkVarlat = 2 };

unsigned aspect_of(int kind) { return 1u << static_cast<unsigned>(kind); }

const char* rule_of(int kind) {
  switch (kind) {
    case kSinkBranch: return "ct-branch";
    case kSinkIndex: return "ct-index";
    default: return "ct-varlat";
  }
}

// ---------------------------------------------------------------------------
// Vocabulary tables.
// ---------------------------------------------------------------------------

/// Declaring a variable with one of these types makes its name secret
/// everywhere (the global-name collapse the locks pass also uses for
/// mutexes — conservative across same-named variables).
const std::set<std::string> kSecretTypeNames = {
    "Aes", "AesGcm", "RsaPrivateKey", "RsaKeyPair", "Drbg", "Sensitive",
};

/// crypto/ct.hpp vocabulary: arguments may be secret, the result is public
/// by construction, and the implementation is audited branch-free. These
/// are the only taint sanitizers the pass knows.
bool is_ct_safe_call(const std::string& last) {
  if (last.rfind("ct_", 0) == 0) return true;  // ct_equal, ct_select_*, ...
  return last == "secure_wipe";
}

/// Member calls whose result is *structure*, not content: sizes, emptiness,
/// lookup success, iterator sentinels, BigInt shape queries. Lengths and
/// container layout are public in the PProx framing model (fixed-size
/// messages, public batch sizes); branching on them is fine.
const std::set<std::string> kPublicResultMembers = {
    "size", "length", "empty", "capacity", "count", "contains", "find",
    "end", "cend", "rend", "bit_length", "is_zero", "is_odd",
    "modulus_bytes", "ok", "has_value", "error", "load", "exchange",
    "full", "joinable",
};

/// Member-call result publicity beyond the fixed set: PRNG draws (next_*)
/// are by definition independent of every secret, so their timing classes
/// carry no secret information; try_*/fetch_* are queue/atomic status
/// results whose scheduling channel is out of the lint's scope (the paper's
/// defense at that granularity is the shuffle batch, DESIGN.md §13.5).
bool is_public_result_member(const std::string& mem) {
  if (kPublicResultMembers.count(mem) != 0) return true;
  return mem.rfind("next_", 0) == 0 || mem.rfind("try_", 0) == 0 ||
         mem.rfind("fetch_", 0) == 0;
}

/// Data members that stay public inside otherwise-secret structs: the RSA
/// public components (n, e) and embedded public keys. Accessing them resets
/// the receiver's taint — `c >= key.n` is a public range check even though
/// `key` is the private key.
const std::set<std::string> kPublicFields = {"n", "e", "pub"};

/// Calls whose *result* is public by cryptographic construction: IND-CPA
/// ciphertext, AEAD output, signatures, and key fingerprints are exactly
/// the bytes the wire exposes. This is the encrypt-side declassification
/// boundary — taint on the plaintext/key arguments stops at the ciphertext
/// (the *internals* of these functions are still analyzed on their own).
bool is_public_result_call(const std::string& last) {
  if (last.find("encrypt") != std::string::npos) return true;
  return last == "seal" || last == "seal_with_random_nonce" ||
         last == "fingerprint" || last == "public_key" ||
         last == "rsa_sign_sha256";
}

/// Member calls that are variable-latency on their receiver/arguments:
/// limb-wise early-exit compare and division-shaped BigInt routines.
const std::set<std::string> kVarlatMembers = {"compare", "divmod", "modinv"};

/// Builtin/STL call names never resolved to scanned functions (same
/// rationale as the other passes); their taint behavior is the generic
/// propagate-args default.
const std::set<std::string> kTerminalCallNames = {
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "posix_memalign", "make_unique", "make_shared", "to_string",
    "push_back", "emplace_back", "emplace_front", "emplace", "insert",
    "resize", "reserve", "append", "assign", "substr", "stoi", "stol",
    "stoul", "stoull", "stod", "min", "max", "swap", "move", "copy",
    "fill", "get", "forward",
};

/// Tokens that never begin an expression primary.
const std::set<std::string> kSkipTokens = {
    "if", "else", "for", "while", "switch", "case", "default", "do",
    "return", "break", "continue", "goto", "new", "delete", "throw", "try",
    "catch", "const", "constexpr", "consteval", "constinit", "static",
    "inline", "volatile", "mutable", "auto", "void", "bool", "true",
    "false", "nullptr", "this", "int", "char", "short", "long", "unsigned",
    "signed", "float", "double", "struct", "class", "enum", "union",
    "using", "namespace", "template", "typename", "operator", "public",
    "private", "protected", "friend", "virtual", "override", "final",
    "noexcept", "explicit", "typedef", "extern", "register", "thread_local",
    "static_assert", "alignas", "co_await", "co_return", "co_yield",
    "PPROX_HOT", "PPROX_NONBLOCKING", "PPROX_ECALL_BOUNDARY",
};

/// Lowercases for the name tests below.
std::string lower(const std::string& ident) {
  std::string n;
  n.reserve(ident.size());
  for (char c : ident) {
    n.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return n;
}

/// Secret-bearing identifier test (lowercased substring match). Names that
/// carry key *metadata* — ids, sizes, epochs, directories — are public:
/// ct.hpp documents lengths as public, and key identity/rotation epochs are
/// protocol-visible in the paper's model.
bool is_secret_name(const std::string& ident) {
  const std::string n = lower(ident);
  auto has = [&](const char* s) { return n.find(s) != std::string::npos; };
  if (has("secret") || has("pseudonym")) return true;
  if (!has("key")) return false;
  static const char* kPublicKeyish[] = {
      "pub",      "key_id",   "keyid",    "key_size", "key_len",
      "key_bits", "key_name", "keyword",  "keyboard", "key_epoch",
      "keys_dir", "key_path", "key_count", "monkey",  "donkey",
      "turkey",   "key_fingerprint",
      // Rekey *schedules* are public policy (when to rotate, not what to
      // rotate to): counters and intervals named "rekey" don't seed.
      "rekey",
      // Parser cursors around a JSON "key" (field name), not key material.
      "key_begin", "key_end",
  };
  for (const char* s : kPublicKeyish) {
    if (has(s)) return false;
  }
  return true;
}

/// A *bare* "key"/"keys"/"k" name is a generic lookup key (JSON fields, map
/// keys, router paths) unless its declared type says otherwise; richer names
/// (aes_key, user_key, k_u) and "secret"/"pseudonym" always seed.
bool is_bare_key(const std::string& ident) {
  const std::string n = lower(ident);
  return n == "key" || n == "keys" || n == "k";
}

/// Name-based seeding for plain identifier uses (no type context).
bool is_secret_ident(const std::string& ident) {
  return is_secret_name(ident) && !is_bare_key(ident);
}

// ---------------------------------------------------------------------------
// Data model: taint masks, witnesses, summaries.
// ---------------------------------------------------------------------------

// A taint mask: bit 0 = intrinsically secret (name/type source), bit i+1 =
// "flows from parameter i" (positions past 30 lose their bit and track
// intrinsic taint only).
constexpr unsigned kIntrinsic = 1u;
constexpr unsigned kMaxParams = 30;

unsigned param_bit(std::size_t i) {
  return i < kMaxParams ? (1u << (i + 1)) : 0u;
}

struct Witness {
  int kind = kSinkBranch;
  std::string chain;  ///< "f -> g -> leaf-fn"
  std::string leaf;   ///< qualified name of the function holding the sink
  std::string file;
  std::size_t line = 0;
  std::string token;  ///< e.g. "branch(exponent)", "%(key.p)"
};

struct SinkEv {
  Witness w;
  unsigned mask = 0;
};

struct ParamSlot {
  std::set<std::string> names;  ///< positional names across merged bodies
  bool out = false;             ///< non-const reference/pointer/MutByteView
  bool bytes_like = false;      ///< byte-buffer/bigint/secret-class type
};

struct Summary {
  std::map<std::pair<unsigned, int>, Witness> param_sink;  ///< (param,kind)
  unsigned ret_taint = 0;
  std::vector<unsigned> param_out;  ///< taint written through out-param i
};

struct FnData {
  std::vector<ParamSlot> params;
  std::map<std::string, SinkEv> events;  ///< dedup key -> event (accumulates)
  unsigned ret_mask = 0;
  Summary sum;
};

struct Pass {
  cg::Graph g;
  std::vector<FnData> data;
  std::map<std::string, std::vector<int>> by_last;
  std::set<std::string> secret_decl_names;
  std::map<std::string, std::map<std::size_t, unsigned>> line_suppressions;
};

/// A suppression covers its own line and the line below it, so the comment
/// can sit trailing on the sink line or alone directly above it.
unsigned line_mask(const Pass& p, const std::string& file, std::size_t line) {
  const auto fit = p.line_suppressions.find(file);
  if (fit == p.line_suppressions.end()) return kAllAspects;
  unsigned suppressed = 0;
  auto lit = fit->second.find(line);
  if (lit != fit->second.end()) suppressed |= lit->second;
  if (line > 0) {
    lit = fit->second.find(line - 1);
    if (lit != fit->second.end()) suppressed |= lit->second;
  }
  return kAllAspects & ~suppressed;
}

// ---------------------------------------------------------------------------
// Declared-name scan: variables of secret types are secret everywhere.
// ---------------------------------------------------------------------------

void scan_secret_decls(Pass& p) {
  for (const cg::Tu& tu : p.g.tus) {
    const auto& toks = tu.toks;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (kSecretTypeNames.count(toks[i].text) == 0) continue;
      std::size_t k = i + 1;
      if (k < toks.size() && toks[k].text == "<") {
        int depth = 1;
        ++k;
        while (k < toks.size() && depth > 0) {
          if (toks[k].text == "<") ++depth;
          if (toks[k].text == ">") --depth;
          ++k;
        }
      }
      while (k < toks.size() &&
             (toks[k].text == "&" || toks[k].text == "*")) {
        ++k;
      }
      if (k + 1 >= toks.size() || !cg::is_ident_tok(toks[k].text)) continue;
      const std::string& nxt = toks[k + 1].text;
      // Length filter: collapsing one- or two-letter names globally (the
      // same conservative collapse the locks pass uses for mutex members)
      // would poison unrelated loop variables in every TU.
      if (toks[k].text.size() >= 3 &&
          (nxt == ";" || nxt == "=" || nxt == "{" || nxt == "," ||
           nxt == ")" || nxt == "(")) {
        p.secret_decl_names.insert(toks[k].text);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parameter extraction: walk back from the body '{' to the parameter list.
// ---------------------------------------------------------------------------

void extract_params(const std::vector<cg::Tok>& toks, const cg::Span& sp,
                    const std::string& fname_last,
                    std::vector<ParamSlot>& slots) {
  if (sp.begin < 2) return;
  // Collect the balanced "(...)" groups between the previous statement
  // boundary and the body brace; a constructor's init list contributes
  // groups too, so prefer the one introduced by the function's own name,
  // else the most-backward group.
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  std::size_t i = sp.begin - 2;
  for (std::size_t steps = 0; steps < 600; ++steps) {
    const std::string& t = toks[i].text;
    if (t == ";" || t == "{" || t == "}") break;
    if (t == ")") {
      int depth = 1;
      std::size_t j = i;
      while (j > 0 && depth > 0) {
        --j;
        if (toks[j].text == ")") ++depth;
        if (toks[j].text == "(") --depth;
      }
      if (depth != 0) break;
      groups.push_back({j, i});
      if (j == 0) break;
      i = j - 1;
      continue;
    }
    if (i == 0) break;
    --i;
  }
  if (groups.empty()) return;
  std::size_t open = groups.back().first;
  std::size_t close = groups.back().second;
  for (const auto& [o, c] : groups) {
    if (o > 0 && toks[o - 1].text == fname_last) {
      open = o;
      close = c;
      break;
    }
  }

  // Split [open+1, close) on top-level commas (angle brackets are not depth
  // counted; template-typed parameters may mis-split — DESIGN.md §13.5).
  std::vector<std::pair<std::size_t, std::size_t>> pieces;
  int depth = 0;
  std::size_t start = open + 1;
  for (std::size_t k = open + 1; k < close; ++k) {
    const std::string& t = toks[k].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    if (t == ")" || t == "]" || t == "}") --depth;
    if (t == "," && depth == 0) {
      pieces.push_back({start, k});
      start = k + 1;
    }
  }
  if (start < close) pieces.push_back({start, close});

  for (std::size_t pi = 0; pi < pieces.size(); ++pi) {
    auto [b, e] = pieces[pi];
    // Cut a default argument.
    for (std::size_t k = b; k < e; ++k) {
      if (toks[k].text == "=") {
        e = k;
        break;
      }
    }
    if (b >= e) continue;
    bool has_const = false, has_ref = false, mut_view = false;
    bool bytes_like = false;
    std::string name;
    for (std::size_t k = b; k < e; ++k) {
      const std::string& t = toks[k].text;
      if (t == "const") has_const = true;
      if (t == "&" || t == "*") has_ref = true;
      if (t == "MutByteView") mut_view = true;
      if (t == "Bytes" || t == "ByteView" || t == "MutByteView" ||
          t == "BigInt" || t == "uint8_t" ||
          kSecretTypeNames.count(t) != 0) {
        bytes_like = true;
      }
      if (cg::is_ident_tok(t) && kSkipTokens.count(t) == 0 &&
          !(k > b && toks[k - 1].text == "::")) {
        name = t;  // last plain identifier wins: that's the parameter name
      }
    }
    if (name.empty() || pieces.size() == 1) {
      if (name.empty()) continue;
    }
    if (slots.size() <= pi) slots.resize(pi + 1);
    slots[pi].names.insert(name);
    if ((has_ref && !has_const) || mut_view) slots[pi].out = true;
    if (bytes_like) slots[pi].bytes_like = true;
  }
}

// ---------------------------------------------------------------------------
// Body walker: statement-level dataflow with sink recording.
// ---------------------------------------------------------------------------

struct Ev {
  unsigned mask = 0;
  std::string name;  ///< first tainted identifier, for reporting
  std::string root;  ///< root identifier when the expr is one simple path
};

struct Walker {
  Pass& p;
  int fi;
  const cg::Fn& fn;
  FnData& d;
  std::map<std::string, unsigned> taint;
  bool taint_changed = false;
  bool events_changed = false;

  // Current span context.
  const std::vector<cg::Tok>* toks = nullptr;
  const std::string* file = nullptr;
  std::size_t span_end = 0;

  Walker(Pass& pass, int idx)
      : p(pass),
        fi(idx),
        fn(pass.g.fns[static_cast<std::size_t>(idx)]),
        d(pass.data[static_cast<std::size_t>(idx)]) {
    for (std::size_t i = 0; i < d.params.size(); ++i) {
      for (const std::string& n : d.params[i].names) {
        unsigned m = param_bit(i);
        // A bare "key" name seeds only when its declared type is a byte
        // buffer / bigint / crypto class — `ByteView key` is key material,
        // `std::string_view key` is a JSON field name.
        if (is_secret_name(n) && (!is_bare_key(n) || d.params[i].bytes_like)) {
          m |= kIntrinsic;
        }
        taint[n] |= m;
      }
    }
  }

  const std::string& text(std::size_t at) const {
    static const std::string kEnd;
    return at < toks->size() ? (*toks)[at].text : kEnd;
  }
  std::size_t line_at(std::size_t at) const {
    return at < toks->size() ? (*toks)[at].line : 0;
  }

  std::size_t match_fwd(std::size_t open) const {
    const std::string& o = text(open);
    const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
    int depth = 1;
    std::size_t i = open + 1;
    while (i < span_end && depth > 0) {
      if (text(i) == o) ++depth;
      if (text(i) == c) --depth;
      if (depth == 0) return i;
      ++i;
    }
    return span_end;
  }

  unsigned ident_mask(const std::string& name) const {
    unsigned m = 0;
    const auto it = taint.find(name);
    if (it != taint.end()) m |= it->second;
    const std::string last = cg::last_component(name);
    if (is_secret_ident(last)) m |= kIntrinsic;
    if (name.find("::") == std::string::npos &&
        p.secret_decl_names.count(name) != 0) {
      m |= kIntrinsic;
    }
    return m;
  }

  void taint_assign(const std::string& name, unsigned mask) {
    if (name.empty() || mask == 0) return;
    unsigned& cur = taint[name];
    if ((cur | mask) != cur) {
      cur |= mask;
      taint_changed = true;
    }
  }

  void add_event(unsigned mask, const Witness& w) {
    if (mask == 0) return;
    const std::string key =
        std::to_string(w.kind) + "|" + w.leaf + "|" + w.token;
    auto it = d.events.find(key);
    if (it == d.events.end()) {
      d.events.emplace(key, SinkEv{w, mask});
      events_changed = true;
    } else if ((it->second.mask | mask) != it->second.mask) {
      it->second.mask |= mask;
      events_changed = true;
    }
  }

  void record_sink(int kind, std::size_t line, unsigned mask,
                   const std::string& nm, const std::string& op) {
    if (mask == 0) return;
    if ((line_mask(p, *file, line) & aspect_of(kind)) == 0) return;
    Witness w;
    w.kind = kind;
    w.chain = fn.qname;
    w.leaf = fn.qname;
    w.file = *file;
    w.line = line;
    w.token = op + "(" + (nm.empty() ? "?" : nm) + ")";
    add_event(mask, w);
  }

  /// Splits a call group (open points at '(' or '{') into top-level
  /// argument ranges.
  std::vector<std::pair<std::size_t, std::size_t>> split_args(
      std::size_t open, std::size_t close) const {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    if (open + 1 >= close) return out;
    int depth = 0;
    std::size_t start = open + 1;
    for (std::size_t k = open + 1; k < close; ++k) {
      const std::string& t = text(k);
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (t == "," && depth == 0) {
        out.push_back({start, k});
        start = k + 1;
      }
    }
    out.push_back({start, close});
    return out;
  }

  /// Root identifier of an lvalue-ish token range ("out.data()" -> "out",
  /// "&b" -> "b"); empty when the range is not one simple path.
  std::string simple_root(std::size_t b, std::size_t e) const {
    std::string root;
    for (std::size_t k = b; k < e; ++k) {
      const std::string& t = text(k);
      if (t == "&" || t == "*" || t == "this") continue;
      if (cg::is_ident_tok(t)) {
        root = t;
        break;
      }
      return "";
    }
    if (root.empty()) return "";
    return root;
  }

  /// End of the primary starting at `i` (identifier path with trailing
  /// call/subscript/member chain, or a parenthesized group).
  std::size_t primary_end(std::size_t i, std::size_t e) const {
    if (i >= e) return i;
    if (text(i) == "(") {
      const std::size_t c = match_fwd(i);
      return c < e ? c + 1 : e;
    }
    if (!cg::is_ident_tok(text(i))) return i + 1;
    std::size_t j = i + 1;
    while (j < e) {
      const std::string& t = text(j);
      if (t == "::" || t == "." || t == "->") {
        if (j + 1 < e && cg::is_ident_tok(text(j + 1))) {
          j += 2;
          continue;
        }
        break;
      }
      if (t == "(" || t == "[") {
        const std::size_t c = match_fwd(j);
        if (c >= e) return e;
        j = c + 1;
        continue;
      }
      break;
    }
    return j;
  }

  void merge(Ev& res, unsigned m, const std::string& nm) {
    res.mask |= m;
    if (res.name.empty() && m != 0) res.name = nm;
  }

  /// Applies a resolved callee's summary at a call site; returns the
  /// result's taint mask. Unresolved calls propagate receiver|args.
  unsigned handle_call(const std::vector<int>& targets,
                       const std::vector<Ev>& args, unsigned recv_mask,
                       std::size_t line) {
    unsigned arg_union = 0;
    for (const Ev& a : args) arg_union |= a.mask;
    if (targets.empty()) return recv_mask | arg_union;
    unsigned result = recv_mask;
    for (int t : targets) {
      const Summary& cs = p.data[static_cast<std::size_t>(t)].sum;
      auto translate = [&](unsigned mm) {
        unsigned o = mm & kIntrinsic;
        for (std::size_t pi = 0; pi < args.size() && pi < kMaxParams; ++pi) {
          if ((mm & param_bit(pi)) != 0) o |= args[pi].mask;
        }
        return o;
      };
      result |= translate(cs.ret_taint);
      for (const auto& [pk, w] : cs.param_sink) {
        const unsigned pi = pk.first;
        if (pi >= args.size()) continue;
        const unsigned am = args[pi].mask;
        if (am == 0) continue;
        if ((line_mask(p, *file, line) & aspect_of(w.kind)) == 0) continue;
        Witness nw = w;
        nw.chain = fn.qname + " -> " + w.chain;
        add_event(am, nw);
      }
      for (std::size_t pi = 0;
           pi < cs.param_out.size() && pi < args.size(); ++pi) {
        if (cs.param_out[pi] == 0) continue;
        taint_assign(args[pi].root, translate(cs.param_out[pi]));
      }
    }
    return result;
  }

  std::vector<Ev> eval_args(std::size_t open, std::size_t close) {
    std::vector<Ev> out;
    for (const auto& [b, e] : split_args(open, close)) {
      Ev a = eval(b, e);
      a.root = simple_root(b, e);
      out.push_back(std::move(a));
    }
    return out;
  }

  /// Member/subscript chain continuation: `m` is the mask of the primary
  /// just parsed ending at `i`; processes ".mem(...)", "->mem", "[idx]"
  /// until the chain ends. `root` names the chain's base variable (for
  /// mutation taint), empty when unknown.
  std::size_t chain(std::size_t i, std::size_t e, unsigned& m,
                    const std::string& root, Ev& res) {
    while (i < e) {
      const std::string& t = text(i);
      if ((t == "." || t == "->") && i + 1 < e &&
          cg::is_ident_tok(text(i + 1))) {
        const std::string mem = text(i + 1);
        std::size_t j = i + 2;
        if (j < e && text(j) == "(") {
          const std::size_t c = match_fwd(j);
          const std::size_t line = line_at(i + 1);
          if (is_public_result_member(mem) || is_public_result_call(mem)) {
            for (const auto& [b2, e2] : split_args(j, c)) eval(b2, e2);
            m = 0;  // structure query / ciphertext: public result
          } else if (is_ct_safe_call(mem)) {
            for (const auto& [b2, e2] : split_args(j, c)) eval(b2, e2);
            m = 0;
          } else if (kVarlatMembers.count(mem) != 0) {
            unsigned am = 0;
            std::string nm = m != 0 ? root : "";
            for (const auto& [b2, e2] : split_args(j, c)) {
              const Ev a = eval(b2, e2);
              am |= a.mask;
              if (nm.empty()) nm = a.name;
            }
            if ((m | am) != 0) {
              record_sink(kSinkVarlat, line, m | am, nm, mem);
            }
            m |= am;
          } else {
            std::vector<Ev> args = eval_args(j, c);
            std::vector<int> targets;
            if (kTerminalCallNames.count(mem) == 0) {
              targets = cg::resolve_name(p.g, p.by_last, fn, mem);
            }
            unsigned am = 0;
            for (const Ev& a : args) am |= a.mask;
            // A mutating member call taints the receiver from its
            // arguments (push_back/update/insert shapes).
            taint_assign(root, am);
            m = handle_call(targets, args, m, line);
          }
          i = c + 1;
        } else {
          if (kPublicFields.count(mem) != 0) {
            m = 0;  // public component of a secret-bearing struct
          } else if (is_secret_ident(mem)) {
            m |= kIntrinsic;
          }
          i = j;
        }
        continue;
      }
      if (t == "[") {
        const std::size_t c = match_fwd(i);
        const Ev idx = eval(i + 1, c);
        if (idx.mask != 0) {
          record_sink(kSinkIndex, line_at(i), idx.mask, idx.name, "index");
        }
        m |= idx.mask;
        i = c + 1;
        continue;
      }
      break;
    }
    if (res.name.empty() && m != 0 && !root.empty()) res.name = root;
    return i;
  }

  Ev eval(std::size_t b, std::size_t e) {
    Ev res;
    unsigned last_primary = 0;
    bool have_primary = false;
    std::size_t i = b;
    while (i < e) {
      const std::string& t = text(i);
      if (t == "(" || t == "{") {
        const std::size_t c = match_fwd(i);
        Ev sub = eval(i + 1, c);
        unsigned m = sub.mask;
        // Merge only after the trailing chain: "(expr).size()" is public
        // even when expr is tainted.
        i = chain(c + 1, e, m, sub.name, res);
        merge(res, m, sub.name);
        last_primary = m;
        have_primary = true;
        continue;
      }
      if (t == "/" || t == "%") {
        if (have_primary) {
          const std::size_t pe = primary_end(i + 1, e);
          Ev r;
          if (i + 1 < pe) r = eval(i + 1, pe);
          const unsigned m = last_primary | r.mask;
          if (m != 0) {
            record_sink(kSinkVarlat, line_at(i), m,
                        !r.name.empty() ? r.name : res.name, t);
          }
        }
        ++i;
        continue;
      }
      if (!cg::is_ident_tok(t) || kSkipTokens.count(t) != 0) {
        ++i;
        continue;
      }
      // Qualified path.
      std::string name = t;
      std::size_t j = i + 1;
      while (j + 1 < e && text(j) == "::" && cg::is_ident_tok(text(j + 1))) {
        name += "::" + text(j + 1);
        j += 2;
      }
      const std::string last = cg::last_component(name);
      if (last == "static_cast" || last == "dynamic_cast" ||
          last == "reinterpret_cast" || last == "const_cast") {
        if (j < e && text(j) == "<") {
          int depth = 1;
          ++j;
          while (j < e && depth > 0) {
            if (text(j) == "<") ++depth;
            if (text(j) == ">") --depth;
            ++j;
          }
        }
        i = j;  // the "(value)" group is evaluated as a grouping next
        continue;
      }
      if (last == "sizeof" || last == "alignof" || last == "decltype") {
        if (j < e && text(j) == "(") j = match_fwd(j) + 1;
        i = j;
        continue;
      }
      unsigned m = 0;
      std::string root = name;
      if (j < e && (text(j) == "(" || text(j) == "{") &&
          !(text(j) == "{" && j + 1 < e && text(j + 1) == "}")) {
        const std::size_t c = match_fwd(j);
        const std::size_t line = line_at(i);
        const bool ctor_decl =
            i > b && cg::is_ident_tok(text(i - 1)) &&
            kSkipTokens.count(text(i - 1)) == 0;
        if (is_ct_safe_call(last) || is_public_result_call(last)) {
          for (const auto& [b2, e2] : split_args(j, c)) eval(b2, e2);
          m = 0;
        } else if (last == "memcpy" || last == "memmove" ||
                   last == "memset") {
          const auto ranges = split_args(j, c);
          std::vector<Ev> args;
          for (const auto& [b2, e2] : ranges) {
            Ev a = eval(b2, e2);
            a.root = simple_root(b2, e2);
            args.push_back(std::move(a));
          }
          if (args.size() >= 2 && last != "memset") {
            taint_assign(args[0].root, args[1].mask);
            m = args[1].mask;
          }
        } else if (ctor_decl) {
          // `Type name(args);` — a declaration, not a call: the new
          // variable takes its initializer's taint.
          unsigned am = 0;
          for (const auto& [b2, e2] : split_args(j, c)) am |= eval(b2, e2).mask;
          taint_assign(name, am);
          m = am;
        } else {
          std::vector<Ev> args = eval_args(j, c);
          std::vector<int> targets;
          if (kTerminalCallNames.count(last) == 0) {
            targets = cg::resolve_name(p.g, p.by_last, fn, name);
          }
          m = handle_call(targets, args, 0, line);
        }
        i = chain(c + 1, e, m, root, res);
        merge(res, m, last);
        last_primary = m;
        have_primary = true;
        continue;
      }
      m = ident_mask(name);
      i = chain(j, e, m, root, res);
      merge(res, m, name);
      last_primary = m;
      have_primary = true;
    }
    return res;
  }

  /// Root of the lvalue/declaration on the left of an assignment.
  std::string lhs_root(std::size_t b, std::size_t e) const {
    std::string cur;
    bool absorbed = false;
    for (std::size_t k = b; k < e; ++k) {
      const std::string& t = text(k);
      if (t == "::" || t == "." || t == "->") {
        absorbed = true;
        continue;
      }
      if (t == "[" || t == "(" || t == "{") {
        int depth = 1;
        ++k;
        while (k < e && depth > 0) {
          const std::string& a = text(k);
          if (a == "[" || a == "(" || a == "{") ++depth;
          if (a == "]" || a == ")" || a == "}") --depth;
          if (depth > 0) ++k;
        }
        continue;
      }
      if (t == "<") {
        // template argument list of a declared type: skip to '>'
        int depth = 1;
        ++k;
        while (k < e && depth > 0) {
          if (text(k) == "<") ++depth;
          if (text(k) == ">") --depth;
          if (depth > 0) ++k;
        }
        continue;
      }
      if (cg::is_ident_tok(t) && kSkipTokens.count(t) == 0) {
        if (absorbed) {
          absorbed = false;
          continue;
        }
        cur = t;
      }
    }
    return cur;
  }

  void stmt(std::size_t b, std::size_t e) {
    if (b >= e) return;
    // Top-level assignment?
    std::size_t ap = span_end;
    std::string prevop;
    int depth = 0;
    for (std::size_t k = b; k < e; ++k) {
      const std::string& t = text(k);
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (depth != 0 || t != "=") continue;
      const std::string& prev = k > b ? text(k - 1) : text(k);
      const std::string& next = k + 1 < e ? text(k + 1) : text(k);
      if (prev == "=" || prev == "!" || prev == "<" || prev == ">" ||
          next == "=") {
        continue;
      }
      if (prev == "+" || prev == "-" || prev == "*" || prev == "/" ||
          prev == "%" || prev == "&" || prev == "|" || prev == "^") {
        prevop = prev;
      }
      ap = k;
      break;
    }
    if (ap >= e) {
      eval(b, e);
      return;
    }
    const std::size_t lhs_end = prevop.empty() ? ap : ap - 1;
    const Ev lv = eval(b, lhs_end);
    const Ev rv = eval(ap + 1, e);
    if ((prevop == "/" || prevop == "%") && (lv.mask | rv.mask) != 0) {
      record_sink(kSinkVarlat, line_at(ap), lv.mask | rv.mask,
                  !lv.name.empty() ? lv.name : rv.name, prevop);
    }
    const std::string root = lhs_root(b, lhs_end);
    taint_assign(root, rv.mask | (prevop.empty() ? 0u : lv.mask));
  }

  /// Statement end: next ';' at depth 0, stopping early at a top-level '{'
  /// so block bodies are walked statement-by-statement.
  std::size_t stmt_end(std::size_t b, std::size_t e) const {
    int depth = 0;
    for (std::size_t k = b; k < e; ++k) {
      const std::string& t = text(k);
      if (t == "{" && depth == 0) return k;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (t == ";" && depth <= 0) return k;
    }
    return e;
  }

  void walk_span(const cg::Span& sp) {
    toks = &p.g.tus[static_cast<std::size_t>(sp.tu)].toks;
    file = &p.g.tus[static_cast<std::size_t>(sp.tu)].path;
    span_end = sp.end;
    std::size_t i = sp.begin;
    while (i < sp.end) {
      const std::string& t = text(i);
      if (t == "{" || t == "}" || t == ";" || t == ":") {
        ++i;
        continue;
      }
      if ((t == "if" || t == "while" || t == "switch") &&
          text(i + 1) == "(") {
        const std::size_t c = match_fwd(i + 1);
        const Ev cond = eval(i + 2, c);
        if (cond.mask != 0) {
          record_sink(kSinkBranch, line_at(i), cond.mask, cond.name,
                      "branch");
        }
        i = c + 1;
        continue;
      }
      if (t == "for" && text(i + 1) == "(") {
        const std::size_t c = match_fwd(i + 1);
        std::size_t semi1 = c, semi2 = c, colon = c;
        int depth = 0;
        for (std::size_t k = i + 2; k < c; ++k) {
          const std::string& a = text(k);
          if (a == "(" || a == "[" || a == "{") ++depth;
          if (a == ")" || a == "]" || a == "}") --depth;
          if (depth != 0) continue;
          if (a == ";") {
            if (semi1 == c) {
              semi1 = k;
            } else if (semi2 == c) {
              semi2 = k;
            }
          }
          if (a == ":" && colon == c && semi1 == c) colon = k;
        }
        if (semi1 < c) {
          stmt(i + 2, semi1);
          const std::size_t cond_end = semi2 < c ? semi2 : c;
          const Ev cond = eval(semi1 + 1, cond_end);
          if (cond.mask != 0) {
            record_sink(kSinkBranch, line_at(i), cond.mask, cond.name,
                        "branch");
          }
          if (semi2 < c) stmt(semi2 + 1, c);
        } else if (colon < c) {
          // Ranged-for: the loop variable takes the range's taint; the
          // trip count is the container's (public) size.
          const Ev range = eval(colon + 1, c);
          taint_assign(lhs_root(i + 2, colon), range.mask);
        } else {
          eval(i + 2, c);
        }
        i = c + 1;
        continue;
      }
      if (t == "return") {
        const std::size_t e = stmt_end(i + 1, sp.end);
        const Ev r = eval(i + 1, e);
        if ((d.ret_mask | r.mask) != d.ret_mask) {
          d.ret_mask |= r.mask;
          taint_changed = true;
        }
        i = e + 1;
        continue;
      }
      if (t == "else" || t == "do" || t == "try" || t == "break" ||
          t == "continue" || t == "case" || t == "default" ||
          t == "goto") {
        ++i;
        continue;
      }
      if (t == "catch" && text(i + 1) == "(") {
        i = match_fwd(i + 1) + 1;
        continue;
      }
      const std::size_t e = stmt_end(i, sp.end);
      stmt(i, e);
      i = e == sp.end ? e : e + (text(e) == "{" ? 0 : 1);
      if (i < sp.end && text(i) == "{") ++i;  // enter the block
    }
  }

  void run() {
    for (int iter = 0; iter < 4; ++iter) {
      taint_changed = false;
      for (const cg::Span& sp : fn.bodies) walk_span(sp);
      if (!taint_changed) break;
    }
  }
};

// ---------------------------------------------------------------------------
// Global fixpoint over per-function summaries.
// ---------------------------------------------------------------------------

bool update_summary(Pass& p, int fi,
                    const std::map<std::string, unsigned>& taint) {
  FnData& d = p.data[static_cast<std::size_t>(fi)];
  Summary& s = d.sum;
  bool changed = false;
  for (const auto& [key, ev] : d.events) {
    (void)key;
    for (std::size_t pi = 0; pi < d.params.size() && pi < kMaxParams; ++pi) {
      if ((ev.mask & param_bit(pi)) == 0) continue;
      const auto pk = std::make_pair(static_cast<unsigned>(pi), ev.w.kind);
      if (s.param_sink.count(pk) == 0) {
        s.param_sink.emplace(pk, ev.w);
        changed = true;
      }
    }
  }
  if ((s.ret_taint | d.ret_mask) != s.ret_taint) {
    s.ret_taint |= d.ret_mask;
    changed = true;
  }
  if (s.param_out.size() < d.params.size()) {
    s.param_out.resize(d.params.size(), 0);
  }
  for (std::size_t pi = 0; pi < d.params.size(); ++pi) {
    if (!d.params[pi].out) continue;
    unsigned m = 0;
    for (const std::string& n : d.params[pi].names) {
      const auto it = taint.find(n);
      if (it != taint.end()) m |= it->second;
    }
    m &= ~param_bit(pi);  // a param's own seed bit is not an out-flow
    if ((s.param_out[pi] | m) != s.param_out[pi]) {
      s.param_out[pi] |= m;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

int run(const cg::Options& opts) {
  const cg::PassSpec spec{
      .mode = "ct",
      .anchor = "ct",
      .what = "constant-time",
      // Split so this tool's own sources never self-match.
      .marker = std::string("PPROX-CT-") + "OK(",
      .from_name = &aspect_from_name,
      .bare_rule = "ct-bare-suppression",
      .bare_message = "constant-time suppression without a justification; "
                      "write PPROX-CT-" "OK(<aspect>): <why> (the bare form "
                      "suppresses nothing)",
      .default_why = "baselined pre-existing secret-dependent timing; shrink, "
                     "do not grow (DESIGN.md §13)"};
  std::vector<cg::Source> sources;
  std::vector<Finding> findings;
  if (!cg::load_sources(spec, opts, sources, findings)) return 2;
  Pass p;
  for (const cg::Source& src : sources) {
    // A suppression on a comment-only line anchors forward to the next code
    // line, so a multi-line justification block above the sink still lands
    // on it; a trailing suppression anchors to its own line.
    const auto comment_only = [&src](std::size_t ln) {
      if (ln == 0 || ln > src.raw.size()) return false;
      const std::string& l = src.raw[ln - 1];
      const std::size_t at = l.find_first_not_of(" \t");
      return at != std::string::npos && l.compare(at, 2, "//") == 0;
    };
    for (const auto& [ln, aspects] : src.suppressions) {
      std::size_t anchor = ln;
      if (comment_only(ln)) {
        while (anchor < src.raw.size() && comment_only(anchor + 1)) ++anchor;
        ++anchor;  // first non-comment line below the block
      }
      p.line_suppressions[src.path][anchor] |= aspects;
    }
    p.g.add_tu(src.path, cg::tokenize(cg::code_lines(src.raw)));
  }

  p.g.merge_decl_annotations();
  scan_secret_decls(p);
  p.by_last = cg::index_by_last(p.g);
  p.data.assign(p.g.fns.size(), FnData{});
  for (std::size_t fi = 0; fi < p.g.fns.size(); ++fi) {
    const cg::Fn& fn = p.g.fns[fi];
    for (const cg::Span& sp : fn.bodies) {
      extract_params(p.g.tus[static_cast<std::size_t>(sp.tu)].toks, sp,
                     cg::last_component(fn.qname), p.data[fi].params);
    }
  }

  bool changed = true;
  std::size_t guard = 0;
  while (changed && guard++ < p.g.fns.size() + 8) {
    changed = false;
    for (std::size_t fi = 0; fi < p.g.fns.size(); ++fi) {
      if (p.g.fns[fi].bodies.empty()) continue;
      Walker w(p, static_cast<int>(fi));
      w.run();
      if (update_summary(p, static_cast<int>(fi), w.taint)) changed = true;
      if (w.events_changed) changed = true;
    }
  }

  // Findings are anchored at the SINK, not the path: one key per
  // (rule, sink-function, operation) with a representative (shortest)
  // taint chain in the message. Fixing or justifying the sink resolves
  // every path through it; the alternative — one key per root — explodes
  // a single leaky helper into dozens of baseline entries.
  for (std::size_t fi = 0; fi < p.g.fns.size(); ++fi) {
    const cg::Fn& fn = p.g.fns[fi];
    for (const auto& [key, ev] : p.data[fi].events) {
      (void)key;
      if ((ev.mask & kIntrinsic) == 0) continue;  // summaries only
      Finding f;
      f.rule = rule_of(ev.w.kind);
      f.key = std::string(f.rule) + "|" + ev.w.leaf + "|" + ev.w.token;
      f.path = ev.w.file.empty() ? fn.file : ev.w.file;
      f.line = ev.w.line != 0 ? ev.w.line : fn.line;
      f.chain = ev.w.chain;
      const char* what =
          ev.w.kind == kSinkBranch
              ? "a branch condition or loop bound"
              : ev.w.kind == kSinkIndex ? "an array subscript"
                                        : "a variable-latency operation";
      f.message = std::string("PPROX-CT-") +
                  (ev.w.kind == kSinkBranch
                       ? "BRANCH"
                       : ev.w.kind == kSinkIndex ? "INDEX" : "VARLAT") +
                  ": secret-tainted value reaches " + what + " at " +
                  ev.w.token + ": " + ev.w.chain +
                  "; make it branch-free with crypto/ct.hpp helpers "
                  "(ct_select_*/ct_mask_*/ct_eq_*), fold validity into one "
                  "flag revealed via ct_reveal, suppress the sink line with "
                  "// PPROX-CT-" "OK(" +
                  (ev.w.kind == kSinkBranch
                       ? "branch"
                       : ev.w.kind == kSinkIndex ? "index" : "varlat") +
                  "): <why>, or ratchet it in the --baseline file";
      findings.push_back(std::move(f));
    }
  }

  // Transitive emission mints the same sink key once per distinct chain;
  // keep the shortest chain as the representative witness.
  std::map<std::string, std::size_t> best;
  std::vector<Finding> unique;
  for (Finding& f : findings) {
    const auto it = best.find(f.key);
    if (it == best.end()) {
      best.emplace(f.key, unique.size());
      unique.push_back(std::move(f));
    } else if (f.chain.size() < unique[it->second].chain.size()) {
      unique[it->second] = std::move(f);
    }
  }
  findings = std::move(unique);

  return cg::report(spec, opts, findings, sources.size());
}

}  // namespace ct
