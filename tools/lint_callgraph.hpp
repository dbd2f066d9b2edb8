// Shared token-level C++ call-graph front end for the pprox_lint
// whole-program passes (--hotpath, --locks, --ct, --lifetime). The tool
// needs no libclang: this is the same comment/string-stripping + scope-stack
// machinery the flow linter uses, grown function-grained: it records, for
// every function definition across all TUs, the qualified name, the
// PPROX_HOT / PPROX_NONBLOCKING / PPROX_ECALL_BOUNDARY annotations, and the
// *body token spans* (index ranges into the TU token stream). Passes replay
// the spans with their own leaf vocabularies — the parser itself knows
// nothing about allocation, blocking, locks, taint or lifetimes, which is
// what lets every pass share one graph without one pass's tables leaking
// into another.
//
// Overloads and #ifdef-twin definitions merge into one node whose spans
// accumulate; effects computed by a pass are therefore unioned across all
// definitions — conservative in the right direction (DESIGN.md §11.2).
//
// Every rule family, the line-local crypto/flow rules included, also shares
// one command line (Options), one source loader that anchors suppressions
// under one policy, one Finding type, and one report tail with the keyed
// baseline ratchet. The call-graph passes also share one run() body
// (run_pass) and the token helpers below, so each pass file keeps only its
// vocabulary, its lattice and its rules.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
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

/// Reads the qualified name "a::b::c" whose first identifier is toks[i],
/// looking no further than `end`. Returns the index just past the name.
std::size_t read_qualified(const std::vector<Tok>& toks, std::size_t i,
                           std::size_t end, std::string& name);

/// True when the identifier at toks[i] is written `::name` (a libc/syscall
/// spelling), not `scope::name`.
bool is_global_name(const std::vector<Tok>& toks, std::size_t i);

/// Index of the bracket that closes toks[open]: every ( [ { nests and every
/// ) ] } unnests, whatever toks[open] itself is. Returns `end` when nothing
/// closes it before `end`.
std::size_t match_close(const std::vector<Tok>& toks, std::size_t open,
                        std::size_t end);

/// Index just past the '>' that closes the template argument list opened
/// by the '<' at toks[open]; only angle brackets nest. Returns `end` when
/// nothing closes it before `end`.
std::size_t skip_template_args(const std::vector<Tok>& toks, std::size_t open,
                               std::size_t end);

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

/// The parameter list of the definition whose body is `sp`. Walking back
/// from the body '{' to the previous statement boundary, the "(...)" group
/// right after the function's own name wins over constructor init-list
/// groups; otherwise the most-backward group is taken.
struct ParamList {
  std::size_t open = 0;  ///< index of the list's '('; 0 when none was found
  /// One [begin, end) token range per top-level comma piece, with any
  /// default argument cut. Classifying the pieces is the pass's business.
  std::vector<std::pair<std::size_t, std::size_t>> params;
};
ParamList param_list(const std::vector<Tok>& toks, const Span& sp,
                     const std::string& fname_last);

/// Strongly connected components of the graph `succ` (iterative Tarjan):
/// one component id per node, numbered in the order components complete.
std::vector<int> scc_ids(const std::vector<std::vector<int>>& succ);

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
};

/// Justified `<marker>aspect[,aspect]): reason` suppressions of every input,
/// under the one policy all six rule families share: a suppression covers
/// the line it sits on and the line below. One inside a block of
/// comment-only lines first moves to the first line below that block, so a
/// multi-line justification above the code covers it.
struct Suppressions {
  /// path -> anchor line -> aspect bits, as placed by load_sources().
  std::map<std::string, std::map<std::size_t, unsigned>> anchored;

  /// Aspect bits covered at `line` of `path`.
  unsigned at(const std::string& path, std::size_t line) const;
};

/// Reads every input and anchors its justified suppressions. A suppression
/// without a ": <why>" suppresses nothing and becomes a `bare_rule`
/// finding. Returns false (after printing why) when an input is unreadable.
bool load_sources(const PassSpec& spec, const Options& opts,
                  std::vector<Source>& sources, Suppressions& suppressions,
                  std::vector<Finding>& findings);

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
/// code (0 clean/within-baseline, 1 findings/regressions/stale baseline
/// entries, 2 IO errors).
int report(const PassSpec& spec, const Options& opts,
           std::vector<Finding>& findings, std::size_t files);

/// The rules of one call-graph pass over the merged graph of every input.
using Analyze = void (*)(const Graph& graph, const Suppressions& suppressions,
                         std::vector<Finding>& findings);

/// The whole run() of a call-graph pass: load_sources(), build the Graph,
/// analyze, keep the shortest chain of each repeated key, then report().
int run_pass(const PassSpec& spec, const Options& opts, Analyze analyze);

}  // namespace cg
