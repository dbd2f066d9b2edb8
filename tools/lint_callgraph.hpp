// Shared token-level C++ call-graph front end for the pprox_lint
// whole-program passes (--hotpath, --locks, --ct, --lifetime). The tool
// needs no libclang: this is the same comment/string-stripping + scope-stack
// machinery the flow linter uses, grown function-grained: it records, for
// every function definition across all TUs, the qualified name, the
// PPROX_HOT / PPROX_NONBLOCKING / PPROX_ECALL_BOUNDARY annotations, and the
// *body token spans* (index ranges into the TU token stream). Passes replay
// the spans with their own leaf vocabularies — the parser itself knows
// nothing about allocation, blocking, or locks, which is what lets both
// passes share one graph without one pass's tables leaking into the other.
//
// Overloads and #ifdef-twin definitions merge into one node whose spans
// accumulate; effects computed by a pass are therefore unioned across all
// definitions — conservative in the right direction (DESIGN.md §11.2).
//
// Every rule family, the line-local crypto/flow rules included, also shares
// one command line (Options), one source loader that scans suppressions,
// one Finding type, and one report tail with the keyed baseline ratchet.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace cg {

/// Annotation bits shared by every call-graph pass (common/hotpath.hpp).
enum Annotation : unsigned {
  kAnnHot = 1u << 0,
  kAnnNonblocking = 1u << 1,
  kAnnEcall = 1u << 2,
};

struct Tok {
  std::string text;
  std::size_t line = 0;  ///< 1-based
};

bool is_ident_char(char c);
bool is_ident_tok(const std::string& t);

/// Strips comments, string/char literals, and preprocessor lines while
/// preserving line structure (so `#define PPROX_HOT ...` is not parsed as
/// code and token line numbers stay real).
std::vector<std::string> code_lines(const std::vector<std::string>& raw);

std::vector<Tok> tokenize(const std::vector<std::string>& code);

/// "a::b::c" -> "c"; names without "::" pass through.
std::string last_component(const std::string& qname);

/// One contiguous function-body token range: [begin, end) into
/// Graph::tus[tu].toks, where toks[end] is the body's closing '}'.
struct Span {
  int tu = -1;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// One merged function node.
struct Fn {
  std::string qname;
  std::string cls;  ///< qualified name minus the last component
  std::string file;  ///< first definition site
  std::size_t line = 0;
  unsigned annotations = 0;
  std::vector<Span> bodies;
};

struct Tu {
  std::string path;
  std::vector<Tok> toks;
};

struct Graph {
  std::vector<Tu> tus;
  std::vector<Fn> fns;
  std::map<std::string, int> index;                  // qname -> fns index
  std::map<std::string, unsigned> decl_annotations;  // from declarations

  Fn& get_or_create(const std::string& qname);

  /// Parses one TU's tokens into the graph; keeps the tokens alive in
  /// `tus` so passes can replay body spans.
  void add_tu(std::string path, std::vector<Tok> toks);

  /// Merges annotations recorded on declarations into their definitions.
  /// Call once, after every add_tu.
  void merge_decl_annotations();
};

// --- call-name resolution --------------------------------------------------

/// Index of scanned functions by last name component, for unqualified and
/// virtual-call fallback resolution.
std::map<std::string, std::vector<int>> index_by_last(const Graph& g);

/// Resolves a written call name to scanned-function indices using the
/// documented policy (DESIGN.md §11.2 steps 3–4): qualified names match
/// exactly or by trailing "::"-aligned suffix; unqualified/member calls
/// prefer the caller's own class, else fall back to every scanned function
/// with that last component (the virtual-call over-approximation). Builtin
/// leaf tables and neutral-member skips are the caller's business and must
/// be applied *before* this.
std::vector<int> resolve_name(
    const Graph& g, const std::map<std::string, std::vector<int>>& by_last,
    const Fn& caller, const std::string& name);

// --- findings, sources and keyed baselines --------------------------------

/// Command line shared by every rule family (crypto, flow, hotpath, locks,
/// ct, lifetime).
struct Options {
  bool json = false;
  std::string baseline;        ///< --baseline FILE (ratchet mode)
  std::string baseline_write;  ///< --baseline-write FILE (regenerate)
  std::vector<std::filesystem::path> inputs;
};

struct Finding {
  std::string rule;
  std::string key;  ///< line-free ratchet key
  std::string path;
  std::size_t line = 0;
  std::string message;
  std::string chain;  ///< "root -> ... -> leaf"; empty for line-local rules
};

/// What a rule family plugs into the shared loader and report tail.
struct PassSpec {
  std::string mode;          ///< --json "mode" field, e.g. "hotpath"
  std::string anchor;        ///< baseline top-level key
  std::string what;          ///< human label, e.g. "hot-path"
  std::string marker;        ///< suppression marker, e.g. "PPROX-HOTPATH-OK("
  unsigned (*from_name)(const std::string&) = nullptr;  ///< aspect -> bits
  std::string bare_rule;     ///< bare-suppression rule (never baselinable)
  std::string bare_message;  ///< message of a bare-suppression finding
  std::string default_why;   ///< why for --baseline-write entries without one
};

/// One input file as read by load_sources().
struct Source {
  std::string path;
  std::vector<std::string> raw;
  /// Justified `<marker>aspect[,aspect]): reason` suppressions: the line
  /// they sit on -> aspect bits. Anchoring them is the pass's business.
  std::map<std::size_t, unsigned> suppressions;
};

/// Shared head of a pass's run(): reads every input and scans its
/// suppressions. A suppression without a ": <why>" suppresses nothing and
/// becomes a `bare_rule` finding. Returns false (after printing why) when an
/// input is unreadable.
bool load_sources(const PassSpec& spec, const Options& opts,
                  std::vector<Source>& sources, std::vector<Finding>& findings);

/// Reads the `"<anchor>": [{"key": ..., "why": ...}, ...]` entry list from a
/// baseline file into key -> why. Returns false when the file is unreadable
/// or the anchor is missing.
bool parse_keyed_baseline(const std::string& path, const std::string& anchor,
                          std::map<std::string, std::string>& entries);

/// Writes `{"<anchor>": [...]}` with sorted, deduplicated entries.
bool write_keyed_baseline(const std::string& path, const std::string& anchor,
                          const std::map<std::string, std::string>& entries);

/// Shared tail of a pass's run(): sort, print (plain or --json), apply the
/// --baseline ratchet or --baseline-write regeneration, return the exit
/// code (0 clean/within-baseline, 1 findings/regressions, 2 IO errors).
int report(const PassSpec& spec, const Options& opts,
           std::vector<Finding>& findings, std::size_t files);

}  // namespace cg
