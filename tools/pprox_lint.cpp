// pprox_lint — crypto-hygiene and privacy information-flow lint for the
// PProx sources.
//
// Crypto rules (always on) scan C++ sources for patterns that break the
// paper's unlinkability argument in a real deployment even though they are
// functionally correct:
//
//   rand          rand()/srand()/random()/drand48()/rand_r() — non-crypto
//                 PRNGs must never generate keys, IVs, or shuffle orders.
//                 Use pprox::crypto::Drbg (or RandomSource for simulations).
//   memcmp        memcmp()/std::memcmp on buffers — early-exit comparison
//                 leaks a matching-prefix timing signal when the operands
//                 are tags, MACs, keys, or pseudonyms. Use
//                 pprox::crypto::ct_equal.
//   secure-wipe   function-local key material (stack arrays or Bytes whose
//                 name contains "key"/"secret") that is never passed to
//                 secure_wipe() before the scope ends.
//   secret-index  S-box style table lookups (identifiers matching
//                 k*Sbox/k*SBox) indexed by a non-constant expression —
//                 a classic cache side channel.
//   bare-suppression  an inline allow(...) with no justification text after
//                 the closing parenthesis — every suppression must say why.
//
// Flow rules (--flow) enforce the UA/IA unlinkability layering of DESIGN.md
// §8 at the translation-unit level. Each file declares its layer with a
// marker comment in its first lines (or gets a path-based default):
//
//     ua | ia | client | lrs | shared | attack | vocab | tooling
//
//   flow-layer    a UA-layer unit references an item-plaintext symbol (or
//                 IA headers), an IA-layer unit references a user-plaintext
//                 symbol (or UA headers), a shared unit references any taint
//                 domain or declassifier, an LRS unit references anything
//                 but PseudonymDomain. Include bans are checked over the
//                 *transitive* include graph of the scanned set.
//   flow-declassify   a declassify_* reference without a PPROX-DECLASSIFY
//                 justification comment on the same or nearby lines.
//   flow-test-declassify  the test-only escape hatch used in src/ or tools/.
//   flow-internal UnsafeRawAccess referenced outside common/taint.hpp.
//
// False positives are suppressed inline, on the offending line, with a
// mandatory reason (a bare allow(...) suppresses nothing):
//     std::memcmp(a, b, n);  // pprox-lint: allow(memcmp): public inputs
//
// Every rule family below reports through lint_callgraph's one path:
// "file:line: [rule] message" diagnostics on stderr, or a JSON report on
// stdout with --json. Each finding carries a line-free key
// (rule|file|symbol for the crypto/flow rules); --baseline FILE fails only
// on keys the checked-in baseline does not list (tools/lint_baseline.json
// here), so CI can gate on "no new findings" while a cleanup is in flight,
// and --baseline-write FILE regenerates it.
//
// Hot-path rules (--hotpath) run the call-graph discipline pass of
// tools/pprox_lint_hotpath.cpp (DESIGN.md §11): PPROX_HOT /
// PPROX_NONBLOCKING / PPROX_ECALL_BOUNDARY functions must not reach heap
// allocation, blocking operations, throws, or recursion cycles. Its
// baseline is tools/hotpath_baseline.json.
//
// Lock-discipline rules (--locks) run the interprocedural pass of
// tools/pprox_lint_locks.cpp (DESIGN.md §12) over the same shared call
// graph: lock-order cycles, blocking or enclave crossings while a lock is
// held, bare manual .lock()/.unlock(), predicate-less CondVar waits. Its
// key-based baseline is tools/locks_baseline.json.
//
// Constant-time rules (--ct) run the interprocedural secret-taint pass of
// tools/pprox_lint_ct.cpp (DESIGN.md §13) over the same shared call graph:
// key/secret/pseudonym-derived values must not reach branch conditions,
// array subscripts, or variable-latency operations. Its key-based baseline
// is tools/ct_baseline.json; the dynamic cross-check is tools/pprox_ct_bench.
//
// Exit status: 0 clean (or within baseline), 1 findings/regressions,
// 2 usage/IO error.
#include "lint_passes.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

using cg::is_ident_char;

/// One scanned file in the flow model: its declared layer and its direct
/// repo-relative includes (the per-TU node of the symbol/include graph).
struct Unit {
  std::string path;           ///< as passed on the command line
  std::string layer;          ///< ua|ia|client|lrs|shared|attack|vocab|tooling
  std::vector<std::string> includes;  ///< include strings, e.g. "pprox/keys.hpp"
};

/// Rule registry for --list-rules: one consolidated row per rule across
/// every pass — pass name, rule id, suppression token, baseline file,
/// summary. Kept at the top of the driver so adding a rule without listing
/// it is hard to miss in review. (The suppression marker strings are split
/// so this file never matches its own scanners.)
struct RuleDoc {
  const char* pass;      ///< crypto | flow | hotpath | locks | ct | lifetime
  const char* name;
  const char* suppress;  ///< inline suppression token for the rule
  const char* baseline;  ///< ratchet file consulted by --baseline
  const char* summary;
};

#define PPROX_ALLOW_TOKEN "pprox-lint: allow(<rule>): <why>"
#define PPROX_OK_TOKEN(PASS) "PPROX-" PASS "-" "OK(<aspect>): <why>"

constexpr RuleDoc kRuleDocs[] = {
    {"crypto", "rand", PPROX_ALLOW_TOKEN, "tools/lint_baseline.json",
     "libc rand()/random() family is not a CSPRNG"},
    {"crypto", "memcmp", PPROX_ALLOW_TOKEN, "tools/lint_baseline.json",
     "memcmp on secrets leaks a matching-prefix timing signal"},
    {"crypto", "secure-wipe", PPROX_ALLOW_TOKEN, "tools/lint_baseline.json",
     "key-material locals must be secure_wipe()d before scope exit"},
    {"crypto", "secret-index", PPROX_ALLOW_TOKEN, "tools/lint_baseline.json",
     "data-dependent S-box lookups are a cache side channel"},
    {"crypto", "intrinsics", PPROX_ALLOW_TOKEN, "tools/lint_baseline.json",
     "CPU intrinsics in src/ stay inside the dispatch TUs "
     "(crypto/accel_x86.cpp, crypto/cpu_features.cpp)"},
    {"crypto", "raw-sync", PPROX_ALLOW_TOKEN, "tools/lint_baseline.json",
     "raw std sync primitives in src/ bypass common/sync.hpp and the "
     "pprox_check scheduler"},
    {"crypto", "bare-suppression", "(never suppressible)",
     "tools/lint_baseline.json",
     "allow(<rule>) comments must carry a ': <why>'"},
    {"flow", "flow-layer", PPROX_ALLOW_TOKEN, "tools/lint_baseline.json",
     "every file in flow scope declares a known layer"},
    {"flow", "flow-declassify", PPROX_ALLOW_TOKEN, "tools/lint_baseline.json",
     "PPROX_DECLASSIFY needs an adjacent justification"},
    {"flow", "flow-test-declassify", PPROX_ALLOW_TOKEN,
     "tools/lint_baseline.json",
     "test-only declassify macros stay out of src/"},
    {"flow", "flow-internal", PPROX_ALLOW_TOKEN, "tools/lint_baseline.json",
     "cross-layer includes must respect the layering graph"},
    {"hotpath", "hot-alloc", PPROX_OK_TOKEN("HOTPATH"),
     "tools/hotpath_baseline.json",
     "PPROX_HOT paths must not reach heap allocation"},
    {"hotpath", "hot-throw", PPROX_OK_TOKEN("HOTPATH"),
     "tools/hotpath_baseline.json",
     "PPROX_HOT paths must not reach a throw"},
    {"hotpath", "hot-recursion", PPROX_OK_TOKEN("HOTPATH"),
     "tools/hotpath_baseline.json",
     "PPROX_HOT paths must not reach a recursion cycle"},
    {"hotpath", "nonblocking-block", PPROX_OK_TOKEN("HOTPATH"),
     "tools/hotpath_baseline.json",
     "PPROX_NONBLOCKING paths must not reach a blocking operation"},
    {"hotpath", "ecall-alloc", PPROX_OK_TOKEN("HOTPATH"),
     "tools/hotpath_baseline.json",
     "PPROX_ECALL_BOUNDARY must not allocate inside the enclave (ROADMAP 3)"},
    {"hotpath", "ecall-block", PPROX_OK_TOKEN("HOTPATH"),
     "tools/hotpath_baseline.json",
     "PPROX_ECALL_BOUNDARY must not reach a blocking op"},
    {"hotpath", "hotpath-bare-suppression", "(never suppressible)",
     "tools/hotpath_baseline.json",
     "hot-path suppressions must carry a ': <why>'"},
    {"locks", "lock-order", PPROX_OK_TOKEN("LOCKS"),
     "tools/locks_baseline.json",
     "no cycle in the global lock-acquisition-order graph (deadlock)"},
    {"locks", "lock-blocking", PPROX_OK_TOKEN("LOCKS"),
     "tools/locks_baseline.json",
     "no blocking leaf (sleep/join/syscall/pool submit) while a lock is "
     "held; CondVar::wait on the released lock is exempt"},
    {"locks", "lock-ecall", PPROX_OK_TOKEN("LOCKS"),
     "tools/locks_baseline.json",
     "no lock held across the enclave boundary (PPROX_ECALL_BOUNDARY or "
     "Enclave::ecall)"},
    {"locks", "lock-manual", PPROX_OK_TOKEN("LOCKS"),
     "tools/locks_baseline.json",
     "bare .lock()/.unlock() outside common/sync.hpp; use RAII guards or "
     "ScopedUnlock"},
    {"locks", "wait-nopred", PPROX_OK_TOKEN("LOCKS"),
     "tools/locks_baseline.json",
     "CondVar::wait must carry a predicate argument"},
    {"locks", "locks-bare-suppression", "(never suppressible)",
     "tools/locks_baseline.json",
     "lock-discipline suppressions must carry a ': <why>'"},
    {"ct", "ct-branch", PPROX_OK_TOKEN("CT"), "tools/ct_baseline.json",
     "secret-tainted value reaches a branch condition or loop bound"},
    {"ct", "ct-index", PPROX_OK_TOKEN("CT"), "tools/ct_baseline.json",
     "secret-tainted value reaches an array subscript"},
    {"ct", "ct-varlat", PPROX_OK_TOKEN("CT"), "tools/ct_baseline.json",
     "secret-tainted operand of a variable-latency op (/ % "
     "BigInt::compare/divmod/modinv)"},
    {"ct", "ct-bare-suppression", "(never suppressible)",
     "tools/ct_baseline.json",
     "constant-time suppressions must carry a ': <why>'"},
    {"lifetime", "lifetime-return-local", PPROX_OK_TOKEN("LIFETIME"),
     "tools/lifetime_baseline.json",
     "a view-returning function must not return a view of a local or an "
     "owning temporary"},
    {"lifetime", "lifetime-ref-capture-escape", PPROX_OK_TOKEN("LIFETIME"),
     "tools/lifetime_baseline.json",
     "no by-ref or unowned-this lambda capture into a sink that outlives "
     "the frame (ThreadPool/ShuffleQueue/DetThread/callbacks); "
     "weak_ptr/shared_from_this guards recognized"},
    {"lifetime", "lifetime-view-member", PPROX_OK_TOKEN("LIFETIME"),
     "tools/lifetime_baseline.json",
     "view-typed data members alias bytes the object does not own"},
    {"lifetime", "lifetime-arena-escape", PPROX_OK_TOKEN("LIFETIME"),
     "tools/lifetime_baseline.json",
     "no view of a per-connection/per-batch buffer stored past the "
     "handler return"},
    {"lifetime", "lifetime-bare-suppression", "(never suppressible)",
     "tools/lifetime_baseline.json",
     "lifetime suppressions must carry a ': <why>'"},
};

#undef PPROX_ALLOW_TOKEN
#undef PPROX_OK_TOKEN

/// The crypto/flow rules an allow(...) can name, one suppression bit each.
constexpr const char* kAllowRules[] = {
    "rand",       "memcmp",   "secure-wipe",     "secret-index",
    "intrinsics", "raw-sync", "flow-layer",      "flow-declassify",
    "flow-test-declassify",   "flow-internal"};

unsigned rule_bit(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kAllowRules); ++i) {
    if (name == kAllowRules[i]) return 1u << i;
  }
  return 0;
}

/// True when `token` (a qualified name like "std::mutex") appears in `line`
/// as a whole token: not preceded by an identifier character or ':' (so
/// "mystd::mutex" and "::std::mutex"-via-alias tricks don't double-fire) and
/// not followed by an identifier character (so "std::thread" does not match
/// inside "std::this_thread").
bool has_qualified(const std::string& line, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool pre_ok =
        pos == 0 || (!is_ident_char(line[pos - 1]) && line[pos - 1] != ':');
    const std::size_t after = pos + token.size();
    const bool post_ok = after >= line.size() || !is_ident_char(line[after]);
    if (pre_ok && post_ok) return true;
    pos += token.size();
  }
  return false;
}

/// Strips comments and string/char literals from the file, preserving the
/// line structure so findings keep accurate line numbers. Returns one entry
/// per source line containing only code.
std::vector<std::string> code_lines(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  bool in_block = false;
  for (const std::string& line : raw) {
    std::string code;
    code.reserve(line.size());
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (in_block) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block = false;
          ++i;
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block = true;
        ++i;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            ++i;
          } else if (line[i] == quote) {
            break;
          }
          ++i;
        }
        code.push_back(quote);  // keep a stand-in so tokens don't merge
        code.push_back(quote);
        continue;
      }
      code.push_back(c);
    }
    out.push_back(std::move(code));
  }
  return out;
}

/// True when `code` contains the identifier `name` as a whole word followed
/// (after whitespace) by '('. Member calls (`.name(` / `->name(`) are
/// ignored: they are methods of our own types, not libc.
bool has_call(const std::string& code, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string::npos) {
    const bool start_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    std::size_t after = pos + name.size();
    while (after < code.size() &&
           std::isspace(static_cast<unsigned char>(code[after])) != 0) {
      ++after;
    }
    const bool call = after < code.size() && code[after] == '(';
    const bool member =
        (pos >= 1 && code[pos - 1] == '.') ||
        (pos >= 2 && code[pos - 2] == '-' && code[pos - 1] == '>');
    if (start_ok && call && !member) return true;
    pos += name.size();
  }
  return false;
}

/// True when `code` references `name` as a whole identifier (any context).
bool has_word(const std::string& code, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string::npos) {
    const bool start_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    const std::size_t after = pos + name.size();
    const bool end_ok = after >= code.size() || !is_ident_char(code[after]);
    if (start_ok && end_ok) return true;
    pos += name.size();
  }
  return false;
}

/// Extracts the bracketed index expression after `table_end`, or empty.
std::string index_expr(const std::string& code, std::size_t bracket) {
  int depth = 0;
  std::string expr;
  for (std::size_t i = bracket; i < code.size(); ++i) {
    if (code[i] == '[') {
      ++depth;
      if (depth == 1) continue;
    }
    if (code[i] == ']') {
      --depth;
      if (depth == 0) return expr;
    }
    if (depth >= 1) expr.push_back(code[i]);
  }
  return expr;
}

bool is_constant_index(const std::string& expr) {
  return !expr.empty() &&
         std::all_of(expr.begin(), expr.end(), [](char c) {
           return std::isdigit(static_cast<unsigned char>(c)) != 0 ||
                  std::isspace(static_cast<unsigned char>(c)) != 0 ||
                  c == 'x' || c == 'X' || c == 'u' || c == 'U';
         });
}

/// One function-local declaration of key material awaiting its wipe.
struct KeyDecl {
  std::string name;
  std::size_t line;
  int depth;  ///< brace depth the declaration lives at
  bool wiped = false;
};

bool name_is_key_material(std::string name, bool crypto_scope) {
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (name.find("key") != std::string::npos ||
      name.find("secret") != std::string::npos) {
    return true;
  }
  // In src/crypto/, CTR counter and keystream stack buffers are
  // keystream-equivalent secrets: XORing a counter block's ciphertext with
  // the ciphertext stream recovers plaintext, so they must be wiped too.
  return crypto_scope && (name.find("counter") != std::string::npos ||
                          name.find("keystream") != std::string::npos);
}

/// Finds `type name[` / `type name(;|=|{)` declarations of key-material
/// locals. Very approximate by design: names must contain key/secret (plus
/// counter/keystream when `crypto_scope`).
std::vector<std::string> key_decl_names(const std::string& code,
                                        bool crypto_scope) {
  static const std::vector<std::string> kTypes = {
      "std::uint8_t", "uint8_t", "unsigned char", "Bytes", "std::array"};
  std::vector<std::string> names;
  for (const std::string& type : kTypes) {
    std::size_t pos = 0;
    while ((pos = code.find(type, pos)) != std::string::npos) {
      const bool start_ok = pos == 0 || !is_ident_char(code[pos - 1]);
      std::size_t i = pos + type.size();
      pos = i;
      if (!start_ok) continue;
      // Skip a template argument list (std::array<...,...>) if present.
      if (i < code.size() && code[i] == '<') {
        int depth = 0;
        for (; i < code.size(); ++i) {
          if (code[i] == '<') ++depth;
          if (code[i] == '>' && --depth == 0) {
            ++i;
            break;
          }
        }
      }
      while (i < code.size() &&
             std::isspace(static_cast<unsigned char>(code[i])) != 0) {
        ++i;
      }
      std::string name;
      while (i < code.size() && is_ident_char(code[i])) {
        name.push_back(code[i++]);
      }
      while (i < code.size() &&
             std::isspace(static_cast<unsigned char>(code[i])) != 0) {
        ++i;
      }
      if (name.empty() || i >= code.size()) continue;
      const char next = code[i];
      const bool is_decl =
          next == '[' || next == ';' || next == '=' || next == '{' || next == '(';
      if (is_decl && name_is_key_material(name, crypto_scope)) {
        names.push_back(name);
      }
    }
  }
  // "uint8_t" also matches inside "std::uint8_t" — drop duplicate names.
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

// ---------------------------------------------------------------------------
// Flow model: layers, domain symbol sets, and the include graph.
// ---------------------------------------------------------------------------

const std::set<std::string> kKnownLayers = {
    "ua", "ia", "client", "lrs", "shared", "attack", "vocab", "tooling"};

/// Symbols whose presence means "this code touches cleartext USER identity".
const std::vector<std::string> kUserPlaintextSyms = {
    "UserDomain", "UserId", "recover_user", "de_pseudonymize_user"};

/// Symbols whose presence means "this code touches cleartext ITEM identity"
/// (the lrs declassifier is item-constrained, so it belongs here too).
const std::vector<std::string> kItemPlaintextSyms = {
    "ItemDomain", "ItemId", "recover_item", "de_pseudonymize_item",
    "declassify_for_lrs"};

/// Headers a UA-layer unit must never include (directly or transitively):
/// they declare the IA's plaintext surface.
const std::vector<std::string> kIaHeaders = {"pprox/logic_ia.hpp",
                                             "pprox/logic.hpp"};
/// Headers an IA-layer unit must never include.
const std::vector<std::string> kUaHeaders = {"pprox/logic_ua.hpp",
                                             "pprox/logic.hpp"};
/// Headers an LRS unit must never include: everything that can name a
/// cleartext identifier or drive the client side of the protocol.
const std::vector<std::string> kLrsBannedHeaders = {
    "pprox/logic.hpp",   "pprox/logic_ua.hpp", "pprox/logic_ia.hpp",
    "pprox/client.hpp",  "pprox/pseudonymize.hpp"};

/// Reads the file's layer marker from its first lines, or derives a default
/// from the path. Markers look like a comment containing the scan tag
/// followed by a layer name; only the first 40 lines are consulted so that
/// string literals deeper in a file (this one, for instance) cannot
/// self-classify it.
std::string detect_layer(const fs::path& path,
                         const std::vector<std::string>& raw) {
  const std::string tag = std::string("PPROX-") + "LAYER:";
  for (std::size_t i = 0; i < raw.size() && i < 40; ++i) {
    const std::size_t pos = raw[i].find(tag);
    if (pos == std::string::npos) continue;
    std::istringstream iss(raw[i].substr(pos + tag.size()));
    std::string layer;
    iss >> layer;
    return layer;
  }
  const std::string p = path.generic_string();
  auto under = [&p](const char* dir) {
    return p.find(dir) != std::string::npos;
  };
  if (under("src/lrs")) return "lrs";
  if (under("src/attack")) return "attack";
  if (under("tools") || under("tests") || under("bench") || under("examples")) {
    return "tooling";
  }
  return "shared";  // src/common, src/crypto, src/pprox hosts, ...
}

/// Collects the #include "..." strings of a file (quoted form only — system
/// headers carry no PProx layering information).
std::vector<std::string> quoted_includes(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  for (const std::string& line : raw) {
    std::size_t i = 0;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
    if (i >= line.size() || line[i] != '#') continue;
    const std::size_t inc = line.find("include", i);
    if (inc == std::string::npos) continue;
    const std::size_t open = line.find('"', inc);
    if (open == std::string::npos) continue;
    const std::size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.push_back(line.substr(open + 1, close - open - 1));
  }
  return out;
}

/// All identifiers in `code` that start with the declassifier prefix.
std::vector<std::string> decl_refs_on(const std::string& code) {
  std::vector<std::string> refs;
  const std::string prefix = std::string("declassify") + "_";
  std::size_t pos = 0;
  while ((pos = code.find(prefix, pos)) != std::string::npos) {
    if (pos > 0 && is_ident_char(code[pos - 1])) {
      pos += prefix.size();
      continue;
    }
    std::size_t end = pos;
    while (end < code.size() && is_ident_char(code[end])) ++end;
    refs.push_back(code.substr(pos, end - pos));
    pos = end;
  }
  return refs;
}

// ---------------------------------------------------------------------------
// Per-file scan.
// ---------------------------------------------------------------------------

/// Line-free key of a crypto/flow finding: rule|file|what fired (a symbol,
/// call, token, header or local name).
cg::Finding line_finding(const std::string& rule, const std::string& path,
                         std::size_t line, const std::string& detail,
                         std::string message) {
  return {rule, rule + "|" + fs::path(path).filename().string() + "|" + detail,
          path, line, std::move(message), ""};
}

/// Appended to the message of every line-suppressible finding.
std::string suppress_hint(const std::string& rule) {
  return " (suppress: // pprox-lint: " "allow(" + rule + "): <why>)";
}

void scan_file(const cg::Source& src, bool flow,
               std::vector<cg::Finding>& findings, std::vector<Unit>& units) {
  const fs::path path(src.path);
  const std::vector<std::string>& raw = src.raw;
  const std::vector<std::string> code = code_lines(raw);

  const std::string generic = path.generic_string();
  const bool is_source = path.extension() == ".cpp";
  const std::string layer = detect_layer(path, raw);
  units.push_back({src.path, layer, quoted_includes(raw)});

  if (flow && kKnownLayers.count(layer) == 0) {
    findings.push_back(line_finding(
        "flow-layer", src.path, 1, "layer " + layer,
        "unknown layer '" + layer +
            "' (expected ua, ia, client, lrs, shared, attack, vocab, or "
            "tooling)"));
  }

  const bool in_crypto = generic.find("src/crypto/") != std::string::npos;
  const bool in_taint_core = generic.find("common/taint.hpp") != std::string::npos;
  const bool in_test_tree = generic.find("tests/") != std::string::npos ||
                            generic.find("bench/") != std::string::npos ||
                            generic.find("examples/") != std::string::npos;

  int depth = 0;
  std::vector<KeyDecl> live_decls;

  for (std::size_t i = 0; i < code.size(); ++i) {
    const auto sit = src.suppressions.find(i + 1);
    const unsigned allowed = sit == src.suppressions.end() ? 0 : sit->second;
    const auto report = [&](const std::string& rule, const std::string& detail,
                            const std::string& msg) {
      if ((allowed & rule_bit(rule)) != 0) return;
      findings.push_back(line_finding(rule, src.path, i + 1, detail,
                                      msg + suppress_hint(rule)));
    };

    // Rule: rand --------------------------------------------------------
    for (const char* fn : {"rand", "srand", "rand_r", "random", "drand48"}) {
      if (has_call(code[i], fn)) {
        report("rand", fn,
               std::string(fn) +
                   "() is not a CSPRNG; use pprox::crypto::Drbg / "
                   "RandomSource for anything observable");
      }
    }

    // Rule: memcmp ------------------------------------------------------
    if (has_call(code[i], "memcmp")) {
      report("memcmp", "memcmp",
             "memcmp leaks a matching-prefix timing signal; compare tags/"
             "keys/pseudonyms with pprox::crypto::ct_equal");
    }

    // Rule: raw-sync ----------------------------------------------------
    // Production code must route synchronization through common/sync.hpp
    // (pprox::Mutex / CondVar / Atomic<T> / DetThread) so pprox_check can
    // interpose on every schedule point under -DPPROX_MODEL_CHECK
    // (DESIGN.md §9). Raw std primitives are invisible to the scheduler and
    // silently shrink the explored interleaving space. Scope: src/ only —
    // tests, benches, and tools may drive threads however they like — and
    // the sync layer itself is exempt (it wraps these by definition).
    if (generic.find("src/") != std::string::npos &&
        generic.find("common/sync.hpp") == std::string::npos &&
        generic.find("common/sync.cpp") == std::string::npos) {
      static const char* const kRawSync[] = {
          // Longer names first so the break below reports the exact token.
          "std::recursive_timed_mutex", "std::recursive_mutex",
          "std::timed_mutex", "std::shared_mutex",
          "std::condition_variable_any", "std::condition_variable",
          "std::atomic_flag", "std::atomic_ref", "std::atomic",
          "std::mutex", "std::thread", "std::jthread",
      };
      for (const char* token : kRawSync) {
        if (has_qualified(code[i], token)) {
          report("raw-sync", token,
                 std::string(token) +
                     " bypasses the deterministic scheduler; use "
                     "pprox::Mutex/CondVar/Atomic/DetThread from "
                     "common/sync.hpp so pprox_check can explore this code "
                     "(DESIGN.md §9)");
          break;  // one finding per line, on the most specific token
        }
      }
    }

    // Rule: intrinsics ---------------------------------------------------
    // Hardware intrinsics must stay inside the dispatch TUs: accel_x86.cpp
    // (the kernels, the only TU built with -maes/-mpclmul) and
    // cpu_features.cpp (the CPUID probe). Everything else in src/ stays
    // portable C++, so non-x86 builds compile the same sources and the
    // runtime dispatch in accel.cpp remains the single switch point.
    if (generic.find("src/") != std::string::npos &&
        generic.find("crypto/accel_x86.cpp") == std::string::npos &&
        generic.find("crypto/cpu_features.cpp") == std::string::npos) {
      static const char* const kIntrinsicHeaders[] = {
          "immintrin.h", "wmmintrin.h", "emmintrin.h", "tmmintrin.h",
          "smmintrin.h", "nmmintrin.h", "x86intrin.h", "cpuid.h",
          "arm_neon.h",
      };
      if (code[i].find("#include") != std::string::npos) {
        for (const char* hdr : kIntrinsicHeaders) {
          if (code[i].find(hdr) != std::string::npos) {
            report("intrinsics", hdr,
                   std::string("#include <") + hdr +
                       "> outside the dispatch TUs; hardware kernels belong "
                       "in crypto/accel_x86.cpp behind the accel.hpp "
                       "backend interface");
            break;
          }
        }
      }
      static const char* const kIntrinsicTokens[] = {
          "_mm_", "_mm256_", "__m128i", "__m256i", "__cpuid", "__get_cpuid",
          "vaeseq_", "vmull_p64",
      };
      for (const char* token : kIntrinsicTokens) {
        if (code[i].find(token) != std::string::npos) {
          report("intrinsics", token,
                 std::string("intrinsic token '") + token +
                     "' outside the dispatch TUs; route hardware paths "
                     "through crypto/accel.hpp so portable builds and "
                     "PPROX_DISABLE_ACCEL keep working");
          break;
        }
      }
    }

    // Rule: secret-index ------------------------------------------------
    std::size_t pos = 0;
    while ((pos = code[i].find('[', pos)) != std::string::npos) {
      // Walk back over the identifier preceding '['.
      std::size_t end = pos;
      while (end > 0 && std::isspace(static_cast<unsigned char>(
                            code[i][end - 1])) != 0) {
        --end;
      }
      std::size_t begin = end;
      while (begin > 0 && is_ident_char(code[i][begin - 1])) --begin;
      const std::string table = code[i].substr(begin, end - begin);
      const bool sbox_like =
          table.size() > 1 && table[0] == 'k' &&
          (table.find("Sbox") != std::string::npos ||
           table.find("SBox") != std::string::npos);
      if (sbox_like) {
        const std::string expr = index_expr(code[i], pos);
        if (!is_constant_index(expr)) {
          report("secret-index", table + "[" + expr + "]",
                 table + "[" + expr +
                     "]: data-dependent S-box lookup is a cache side "
                     "channel; use a constant-time implementation or "
                     "justify with an allow comment");
        }
      }
      ++pos;
    }

    // Rule: secure-wipe (function locals in .cpp files only) ------------
    if (is_source) {
      for (const std::string& name : key_decl_names(code[i], in_crypto)) {
        if ((allowed & rule_bit("secure-wipe")) != 0) continue;
        live_decls.push_back({name, i + 1, depth + /*opens its scope*/ 0});
      }
      if (code[i].find("secure_wipe") != std::string::npos) {
        for (KeyDecl& d : live_decls) {
          if (code[i].find(d.name) != std::string::npos) d.wiped = true;
        }
      }
      for (char c : code[i]) {
        if (c == '{') ++depth;
        if (c == '}') {
          --depth;
          for (auto it = live_decls.begin(); it != live_decls.end();) {
            if (it->depth > depth && depth >= 0) {
              if (!it->wiped && it->depth > 0) {
                findings.push_back(line_finding(
                    "secure-wipe", src.path, it->line, it->name,
                    "key material '" + it->name +
                        "' leaves scope without secure_wipe(); stack "
                        "copies of keys outlive the call otherwise" +
                        suppress_hint("secure-wipe")));
              }
              it = live_decls.erase(it);
            } else {
              ++it;
            }
          }
        }
      }
    }

    if (!flow) continue;

    // Rule: flow-layer (symbol references) ------------------------------
    if (layer == "ua") {
      for (const std::string& sym : kItemPlaintextSyms) {
        if (has_word(code[i], sym)) {
          report("flow-layer", sym,
                 "UA-layer unit references item-plaintext symbol '" + sym +
                     "'; the User Anonymizer must never observe item "
                     "identifiers (paper §4.2)");
        }
      }
    } else if (layer == "ia") {
      for (const std::string& sym : kUserPlaintextSyms) {
        if (has_word(code[i], sym)) {
          report("flow-layer", sym,
                 "IA-layer unit references user-plaintext symbol '" + sym +
                     "'; the Item Anonymizer must never observe user "
                     "identities (paper §4.2)");
        }
      }
    } else if (layer == "shared") {
      for (const std::string& sym : kUserPlaintextSyms) {
        if (has_word(code[i], sym)) {
          report("flow-layer", sym,
                 "shared unit references user-plaintext symbol '" + sym +
                     "'; hosts move ciphertext only — route plaintext "
                     "through a ua/ia/client-layer unit");
        }
      }
      for (const std::string& sym : kItemPlaintextSyms) {
        if (has_word(code[i], sym)) {
          report("flow-layer", sym,
                 "shared unit references item-plaintext symbol '" + sym +
                     "'; hosts move ciphertext only — route plaintext "
                     "through a ua/ia/client-layer unit");
        }
      }
      if (!decl_refs_on(code[i]).empty()) {
        report("flow-layer", "declassifier",
               "shared unit calls a declassifier; only ua/ia/client/vocab "
               "units may release sensitive values");
      }
    } else if (layer == "lrs") {
      for (const std::string& sym : kUserPlaintextSyms) {
        if (has_word(code[i], sym)) {
          report("flow-layer", sym,
                 "LRS unit references user-plaintext symbol '" + sym +
                     "'; the LRS may only consume PseudonymDomain values");
        }
      }
      for (const std::string& sym : kItemPlaintextSyms) {
        if (has_word(code[i], sym)) {
          report("flow-layer", sym,
                 "LRS unit references item-plaintext symbol '" + sym +
                     "'; the LRS may only consume PseudonymDomain values");
        }
      }
      if (!decl_refs_on(code[i]).empty()) {
        report("flow-layer", "declassifier",
               "LRS unit calls a declassifier; declassification happens "
               "before data reaches the LRS, never inside it");
      }
    }

    // Rules: flow-declassify / flow-test-declassify ----------------------
    const std::vector<std::string> refs = decl_refs_on(code[i]);
    if (!refs.empty()) {
      // A justification must sit on the same line or within the preceding
      // comment block (up to 6 raw lines — declarations and wrapped call
      // expressions push the marker a few lines up).
      const std::string just = std::string("PPROX-") + "DECLASSIFY:";
      bool justified = raw[i].find(just) != std::string::npos;
      for (std::size_t back = 1; !justified && back <= 6 && back <= i; ++back) {
        justified = raw[i - back].find(just) != std::string::npos;
      }
      if (!justified) {
        report("flow-declassify", refs.front(),
               "declassify call site without a " + just +
                   " justification comment (see DESIGN.md §8.4)");
      }
      for (const std::string& ref : refs) {
        if (ref == "declassify_for_test" && !in_test_tree) {
          report("flow-test-declassify", ref,
                 "declassify_for_test is a test-only escape hatch; src/ and "
                 "tools/ must use a purpose-named declassifier");
        }
      }
    }

    // Rule: flow-internal ------------------------------------------------
    if (!in_taint_core && has_word(code[i], "UnsafeRawAccess")) {
      report("flow-internal", "UnsafeRawAccess",
             "UnsafeRawAccess is reserved for common/taint.hpp; use a "
             "declassify_* function or a taint:: combinator");
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-TU pass: transitive include bans over the scanned set.
// ---------------------------------------------------------------------------

/// True when `path` (generic form) ends with the include string `inc`.
bool path_matches_include(const std::string& path, const std::string& inc) {
  if (path.size() < inc.size()) return false;
  if (path.compare(path.size() - inc.size(), inc.size(), inc) != 0) return false;
  return path.size() == inc.size() || path[path.size() - inc.size() - 1] == '/';
}

/// Transitive closure of a unit's includes, resolved against the scanned
/// set (includes leaving the scanned set terminate there — system headers
/// and unscanned files carry no layering rules).
std::set<std::string> reachable_includes(const Unit& start,
                                         const std::vector<Unit>& units) {
  std::set<std::string> seen;  // include strings
  std::vector<std::string> frontier = start.includes;
  while (!frontier.empty()) {
    const std::string inc = frontier.back();
    frontier.pop_back();
    if (!seen.insert(inc).second) continue;
    for (const Unit& u : units) {
      if (!path_matches_include(fs::path(u.path).generic_string(), inc)) continue;
      for (const std::string& next : u.includes) frontier.push_back(next);
    }
  }
  return seen;
}

void check_include_graph(const std::vector<Unit>& units,
                         std::vector<cg::Finding>& findings) {
  for (const Unit& unit : units) {
    const std::vector<std::string>* banned = nullptr;
    const char* why = nullptr;
    if (unit.layer == "ua") {
      banned = &kIaHeaders;
      why = "UA-layer unit reaches the IA plaintext surface via include";
    } else if (unit.layer == "ia") {
      banned = &kUaHeaders;
      why = "IA-layer unit reaches the UA plaintext surface via include";
    } else if (unit.layer == "lrs") {
      banned = &kLrsBannedHeaders;
      why = "LRS unit reaches a cleartext-identifier header via include";
    }
    if (banned == nullptr) continue;
    const std::set<std::string> reach = reachable_includes(unit, units);
    for (const std::string& ban : *banned) {
      if (reach.count(ban) != 0) {
        findings.push_back(line_finding("flow-layer", unit.path, 1, ban,
                                        std::string(why) + ": " + ban));
      }
    }
  }
}

void collect(const fs::path& root, std::vector<fs::path>& files) {
  if (fs::is_regular_file(root)) {
    const auto ext = root.extension();
    if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc") {
      files.push_back(root);
    }
    return;
  }
  if (!fs::is_directory(root)) {
    std::cerr << "pprox_lint: no such file or directory: " << root << "\n";
    std::exit(2);
  }
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc") {
      files.push_back(entry.path());
    }
  }
}

/// The line-local crypto rules, plus the flow rules when `flow` is set.
int run_line_rules(const cg::Options& opts, bool flow) {
  const cg::PassSpec spec{
      .mode = flow ? "flow" : "crypto",
      .anchor = "lint",
      .what = flow ? "crypto/flow" : "crypto",
      // Split so this file never matches its own scanner.
      .marker = std::string("pprox-lint: ") + "allow(",
      .from_name = &rule_bit,
      .bare_rule = "bare-suppression",
      .bare_message = "inline suppression without a justification; write "
                      "allow(<rule>): <why> (the bare form suppresses "
                      "nothing)",
      .default_why = "baselined pre-existing violation; shrink, do not grow "
                     "(DESIGN.md §7.3)"};
  std::vector<cg::Source> sources;
  std::vector<cg::Finding> findings;
  if (!cg::load_sources(spec, opts, sources, findings)) return 2;
  std::vector<Unit> units;
  for (const cg::Source& src : sources) scan_file(src, flow, findings, units);
  if (flow) check_include_graph(units, findings);
  return cg::report(spec, opts, findings, sources.size());
}

int run_crypto(const cg::Options& opts) { return run_line_rules(opts, false); }
int run_flow(const cg::Options& opts) { return run_line_rules(opts, true); }

}  // namespace

int main(int argc, char** argv) {
  cg::Options opts;
  int (*run)(const cg::Options&) = &run_crypto;
  bool list_rules = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: pprox_lint [--flow|--hotpath|--locks|--ct|--lifetime] "
             "[--json] [--baseline FILE] "
             "[--baseline-write FILE] [--list-rules] <dir-or-file>...\n"
             "crypto rules: rand, memcmp, secure-wipe, secret-index, "
             "intrinsics, raw-sync, bare-suppression\n"
             "flow rules (--flow): flow-layer, flow-declassify, "
             "flow-test-declassify, flow-internal\n"
             "hotpath rules (--hotpath): hot-alloc, hot-throw, "
             "hot-recursion, nonblocking-block, ecall-alloc, ecall-block, "
             "hotpath-bare-suppression\n"
             "locks rules (--locks): lock-order, lock-blocking, lock-ecall, "
             "lock-manual, wait-nopred, locks-bare-suppression\n"
             "ct rules (--ct): ct-branch, ct-index, ct-varlat, "
             "ct-bare-suppression\n"
             "lifetime rules (--lifetime): lifetime-return-local, "
             "lifetime-ref-capture-escape, lifetime-view-member, "
             "lifetime-arena-escape, lifetime-bare-suppression\n"
             "suppress: // pprox-lint: allow(<rule>): <why>   (crypto/flow)\n"
             "          // PPROX-HOTPATH-OK(<effect>): <why>  (hotpath)\n"
             "          // PPROX-LOCKS-OK(<aspect>): <why>    (locks)\n"
             "          // PPROX-CT-OK(<aspect>): <why>       (ct)\n"
             "          // PPROX-LIFETIME-OK(<aspect>): <why> (lifetime)\n"
             "--json prints the findings with their line-free keys\n"
             "--baseline compares finding keys against FILE and fails only "
             "on keys it does not list\n"
             "--baseline-write regenerates FILE from the current findings "
             "and exits 0\n"
             "--list-rules prints the rule table and exits\n";
      return 0;
    }
    if (arg == "--list-rules") {
      list_rules = true;
      continue;
    }
    if (arg == "--flow") {
      run = &run_flow;
      continue;
    }
    if (arg == "--hotpath") {
      run = &hotpath::run;
      continue;
    }
    if (arg == "--locks") {
      run = &locks::run;
      continue;
    }
    if (arg == "--ct") {
      run = &ct::run;
      continue;
    }
    if (arg == "--lifetime") {
      run = &lifetime::run;
      continue;
    }
    if (arg == "--json") {
      opts.json = true;
      continue;
    }
    if (arg == "--baseline") {
      if (i + 1 >= argc) {
        std::cerr << "pprox_lint: --baseline needs a file argument\n";
        return 2;
      }
      opts.baseline = argv[++i];
      continue;
    }
    if (arg == "--baseline-write") {
      if (i + 1 >= argc) {
        std::cerr << "pprox_lint: --baseline-write needs a file argument\n";
        return 2;
      }
      opts.baseline_write = argv[++i];
      continue;
    }
    if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      std::cerr << "pprox_lint: unknown option " << arg
                << " (see --help)\n";
      return 2;
    }
    collect(arg, opts.inputs);
  }
  if (list_rules) {
    // One consolidated table across all passes: pass, rule, suppression
    // token, baseline file, then the summary indented on its own line (the
    // summaries are full sentences; a fifth column would wrap badly).
    std::size_t wp = std::string("PASS").size();
    std::size_t wn = std::string("RULE").size();
    std::size_t ws = std::string("SUPPRESSION").size();
    for (const RuleDoc& doc : kRuleDocs) {
      wp = std::max(wp, std::string(doc.pass).size());
      wn = std::max(wn, std::string(doc.name).size());
      ws = std::max(ws, std::string(doc.suppress).size());
    }
    std::cout << std::left << std::setw(static_cast<int>(wp)) << "PASS"
              << "  " << std::setw(static_cast<int>(wn)) << "RULE" << "  "
              << std::setw(static_cast<int>(ws)) << "SUPPRESSION" << "  "
              << "BASELINE\n";
    for (const RuleDoc& doc : kRuleDocs) {
      std::cout << std::left << std::setw(static_cast<int>(wp)) << doc.pass
                << "  " << std::setw(static_cast<int>(wn)) << doc.name
                << "  " << std::setw(static_cast<int>(ws)) << doc.suppress
                << "  " << doc.baseline << "\n"
                << std::string(wp + 2, ' ') << "- " << doc.summary << "\n";
    }
    return 0;
  }
  if (opts.inputs.empty()) {
    std::cerr << "pprox_lint: no input files (pass src/crypto src/pprox)\n";
    return 2;
  }
  std::sort(opts.inputs.begin(), opts.inputs.end());
  return run(opts);
}
