// Shared call-graph front end for pprox_lint whole-program passes.
// See lint_callgraph.hpp for the contract; the parser here is the --hotpath
// pass's original scope-stack parser with the leaf/call vocabulary removed:
// it only records function identity, annotations, and body token spans.
#include "lint_callgraph.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iostream>
#include <sstream>

namespace cg {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_tok(const std::string& t) {
  return !t.empty() &&
         (std::isalpha(static_cast<unsigned char>(t[0])) != 0 || t[0] == '_');
}

std::vector<std::string> code_lines(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  bool in_block = false;
  bool in_directive = false;
  for (const std::string& line : raw) {
    std::string code;
    code.reserve(line.size());
    if (in_directive) {  // continuation of a preprocessor line
      in_directive = !line.empty() && line.back() == '\\';
      out.emplace_back();
      continue;
    }
    std::size_t first = 0;
    while (first < line.size() &&
           std::isspace(static_cast<unsigned char>(line[first])) != 0) {
      ++first;
    }
    if (!in_block && first < line.size() && line[first] == '#') {
      in_directive = !line.empty() && line.back() == '\\';
      out.emplace_back();
      continue;
    }
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
        code.push_back(quote);
        code.push_back(quote);
        continue;
      }
      code.push_back(c);
    }
    out.push_back(std::move(code));
  }
  return out;
}

std::vector<Tok> tokenize(const std::vector<std::string>& code) {
  std::vector<Tok> toks;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& s = code[li];
    std::size_t i = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      if (is_ident_char(c) && std::isdigit(static_cast<unsigned char>(c)) == 0) {
        std::size_t j = i;
        while (j < s.size() && is_ident_char(s[j])) ++j;
        toks.push_back({s.substr(i, j - i), li + 1});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t j = i;
        while (j < s.size() && (is_ident_char(s[j]) || s[j] == '.')) ++j;
        toks.push_back({s.substr(i, j - i), li + 1});
        i = j;
        continue;
      }
      if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
        toks.push_back({"::", li + 1});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
        toks.push_back({"->", li + 1});
        i += 2;
        continue;
      }
      if (c == '"' && i + 1 < s.size() && s[i + 1] == '"') {
        toks.push_back({"\"\"", li + 1});
        i += 2;
        continue;
      }
      if (c == '\'' && i + 1 < s.size() && s[i + 1] == '\'') {
        toks.push_back({"''", li + 1});
        i += 2;
        continue;
      }
      toks.push_back({std::string(1, c), li + 1});
      ++i;
    }
  }
  return toks;
}

std::string last_component(const std::string& qname) {
  const std::size_t sep = qname.rfind("::");
  return sep == std::string::npos ? qname : qname.substr(sep + 2);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Parsed `<marker>aspect[,aspect]): reason` suppression on one line.
struct Suppression {
  unsigned effects = 0;
  bool bare = false;  ///< reason missing — rejected, suppresses nothing
};

/// Scans raw source lines for `marker` (e.g. "PPROX-HOTPATH-OK(") and parses
/// the aspect list via `from_name`. The mandatory ": <why>" contract is
/// shared: a bare suppression gets effects=0 and bare=true.
std::map<std::size_t, Suppression> scan_suppressions(
    const std::vector<std::string>& raw, const std::string& marker,
    unsigned (*from_name)(const std::string&)) {
  std::map<std::size_t, Suppression> out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::size_t pos = raw[i].find(marker);
    if (pos == std::string::npos) continue;
    const std::size_t open = pos + marker.size();
    const std::size_t close = raw[i].find(')', open);
    if (close == std::string::npos) continue;
    Suppression s;
    std::string inside = raw[i].substr(open, close - open);
    std::replace(inside.begin(), inside.end(), ',', ' ');
    std::istringstream iss(inside);
    std::string name;
    while (iss >> name) s.effects |= from_name(name);
    // Mandatory ": <nonempty reason>" after the closing parenthesis.
    std::size_t after = close + 1;
    while (after < raw[i].size() &&
           std::isspace(static_cast<unsigned char>(raw[i][after])) != 0) {
      ++after;
    }
    if (after >= raw[i].size() || raw[i][after] != ':') {
      s.bare = true;
    } else {
      ++after;
      while (after < raw[i].size() &&
             std::isspace(static_cast<unsigned char>(raw[i][after])) != 0) {
        ++after;
      }
      if (after >= raw[i].size()) s.bare = true;
    }
    if (s.bare) s.effects = 0;  // a rejected suppression suppresses nothing
    out.emplace(i + 1, s);
  }
  return out;
}

}  // namespace

bool load_sources(const PassSpec& spec, const Options& opts,
                  std::vector<Source>& sources,
                  std::vector<Finding>& findings) {
  for (const std::filesystem::path& path : opts.inputs) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "pprox_lint: cannot read " << path << "\n";
      return false;
    }
    Source src;
    src.path = path.string();
    std::string line;
    while (std::getline(in, line)) src.raw.push_back(line);
    for (const auto& [ln, s] :
         scan_suppressions(src.raw, spec.marker, spec.from_name)) {
      if (!s.bare) {
        src.suppressions.emplace(ln, s.effects);
        continue;
      }
      Finding f;
      f.rule = spec.bare_rule;
      f.key = spec.bare_rule + "|" + path.filename().string() + "|" +
              std::to_string(ln);
      f.path = src.path;
      f.line = ln;
      f.message = spec.bare_message;
      findings.push_back(std::move(f));
    }
    sources.push_back(std::move(src));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Graph
// ---------------------------------------------------------------------------

Fn& Graph::get_or_create(const std::string& qname) {
  const auto it = index.find(qname);
  if (it != index.end()) return fns[static_cast<std::size_t>(it->second)];
  index.emplace(qname, static_cast<int>(fns.size()));
  Fn f;
  f.qname = qname;
  const std::size_t sep = qname.rfind("::");
  f.cls = sep == std::string::npos ? std::string() : qname.substr(0, sep);
  fns.push_back(std::move(f));
  return fns.back();
}

void Graph::merge_decl_annotations() {
  for (const auto& [qname, ann] : decl_annotations) {
    get_or_create(qname).annotations |= ann;
  }
}

// ---------------------------------------------------------------------------
// Parser: scope tracking and function-span extraction.
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(int tu, Graph& graph)
      : tu_(tu), toks_(graph.tus[static_cast<std::size_t>(tu)].toks),
        file_(graph.tus[static_cast<std::size_t>(tu)].path), graph_(graph) {}

  void parse() {
    while (i_ < toks_.size()) {
      if (in_body()) {
        body_token();
      } else {
        decl_token();
      }
    }
  }

 private:
  enum class ScopeKind { kNamespace, kClass, kFunction, kBlock };
  struct Scope {
    ScopeKind kind;
    std::string name;
    int fn = -1;               ///< graph index for kFunction scopes
    std::size_t body_begin = 0;  ///< first body token for kFunction scopes
  };

  bool in_body() const {
    return !scopes_.empty() && (scopes_.back().kind == ScopeKind::kFunction ||
                                scopes_.back().kind == ScopeKind::kBlock);
  }

  std::string scope_prefix() const {
    std::string out;
    for (const Scope& s : scopes_) {
      if (s.kind != ScopeKind::kNamespace && s.kind != ScopeKind::kClass) {
        continue;
      }
      if (s.name.empty()) continue;  // anonymous namespace / struct
      if (!out.empty()) out += "::";
      out += s.name;
    }
    return out;
  }

  const Tok& cur() const { return toks_[i_]; }
  const std::string& tok(std::size_t off = 0) const {
    static const std::string kEnd;
    return i_ + off < toks_.size() ? toks_[i_ + off].text : kEnd;
  }
  bool at_end() const { return i_ >= toks_.size(); }

  /// Skips a balanced group starting at the current opener token.
  void skip_balanced(const char* open, const char* close) {
    int depth = 0;
    while (!at_end()) {
      if (tok() == open) ++depth;
      if (tok() == close && --depth == 0) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  /// Skips template angle brackets; bails out (going nowhere) if the '<'
  /// turns out to be a comparison (unbalanced before ';' or ')').
  void skip_angles() {
    const std::size_t start = i_;
    int depth = 0;
    std::size_t steps = 0;
    while (!at_end() && steps++ < 256) {
      const std::string& t = tok();
      if (t == "<") ++depth;
      if (t == ">" && --depth == 0) {
        ++i_;
        return;
      }
      if (t == ";" || t == "{" || t == "}") break;  // not a template list
      ++i_;
    }
    i_ = start + 1;
  }

  /// Consumes to the end of the current statement: the first ';' at bracket
  /// depth 0. Stops (without consuming) at a '}' at depth 0 so enclosing
  /// scopes still close properly.
  void skip_statement() {
    int depth = 0;
    while (!at_end()) {
      const std::string& t = tok();
      if (depth == 0 && t == ";") {
        ++i_;
        return;
      }
      if (depth == 0 && t == "}") return;
      if (t == "{" || t == "(" || t == "[") ++depth;
      if (t == "}" || t == ")" || t == "]") --depth;
      ++i_;
    }
  }

  // --- declaration scope ---------------------------------------------------

  void decl_token() {
    const std::string& t = tok();
    if (t == "}") {
      if (!scopes_.empty()) scopes_.pop_back();
      ++i_;
      if (tok() == ";") ++i_;
      return;
    }
    if (t == ";") {
      pending_ = 0;
      ++i_;
      return;
    }
    if (t == "namespace") {
      parse_namespace();
      return;
    }
    if (t == "template") {
      ++i_;
      if (tok() == "<") skip_angles();
      return;
    }
    if (t == "using" || t == "typedef" || t == "friend" ||
        t == "static_assert") {
      skip_statement();
      return;
    }
    if (t == "extern") {
      if (tok(1) == "\"\"" && tok(2) == "{") {
        scopes_.push_back({ScopeKind::kNamespace, "", -1, 0});
        i_ += 3;
        return;
      }
      ++i_;
      return;
    }
    if (t == "class" || t == "struct" || t == "union" || t == "enum") {
      parse_class();
      return;
    }
    if ((t == "public" || t == "private" || t == "protected") &&
        tok(1) == ":") {
      // Consume the access specifier so the first member after it dispatches
      // normally — otherwise an annotation opening that member is swallowed
      // as part of one long declaration statement.
      i_ += 2;
      return;
    }
    if (t == "PPROX_HOT") {
      pending_ |= kAnnHot;
      ++i_;
      return;
    }
    if (t == "PPROX_NONBLOCKING") {
      pending_ |= kAnnNonblocking;
      ++i_;
      return;
    }
    if (t == "PPROX_ECALL_BOUNDARY") {
      pending_ |= kAnnEcall;
      ++i_;
      return;
    }
    parse_decl_or_def();
  }

  void parse_namespace() {
    ++i_;  // namespace
    std::string name;
    while (!at_end() && (is_ident_tok(tok()) || tok() == "::")) {
      name += tok();
      ++i_;
    }
    if (tok() == "{") {
      scopes_.push_back({ScopeKind::kNamespace, name, -1, 0});
      ++i_;
    } else {
      skip_statement();  // namespace alias or malformed
    }
  }

  void parse_class() {
    ++i_;  // class/struct/union/enum
    if (tok() == "class" || tok() == "struct") ++i_;  // enum class
    while (tok() == "[") skip_balanced("[", "]");     // attributes
    if (tok() == "alignas" && tok(1) == "(") {
      ++i_;
      skip_balanced("(", ")");
    }
    std::string name;
    if (is_ident_tok(tok())) {
      name = tok();
      ++i_;
    }
    // Scan to the body or the end of a forward declaration.
    while (!at_end()) {
      const std::string& t = tok();
      if (t == ";") {
        ++i_;
        return;  // forward declaration
      }
      if (t == "{") {
        scopes_.push_back({ScopeKind::kClass, name, -1, 0});
        ++i_;
        return;
      }
      if (t == "(") {
        skip_balanced("(", ")");
        continue;
      }
      if (t == "<") {
        skip_angles();
        continue;
      }
      if (t == "}") return;  // malformed; let the scope close
      ++i_;
    }
  }

  /// Generic declaration statement at namespace/class scope: recognizes
  /// `name(args) [qualifiers] {body}` as a function definition and
  /// `name(args) [qualifiers];` as a declaration (annotation carrier).
  void parse_decl_or_def() {
    std::string name;
    std::size_t name_line = 0;
    bool name_fresh = false;  // the token just consumed ended the name path
    bool tilde = false;
    while (!at_end()) {
      const std::string& t = tok();
      if (t == ";") {
        pending_ = 0;
        ++i_;
        return;
      }
      if (t == "}") return;
      if (t == "{") {  // brace init or stray block at decl scope
        skip_balanced("{", "}");
        continue;
      }
      if (t == "=") {
        ++i_;
        if (tok() == "default" || tok() == "delete" || tok() == "0") {
          record_declaration(name);
        }
        skip_statement();
        pending_ = 0;
        return;
      }
      if (t == "~") {
        tilde = true;
        name_fresh = false;
        ++i_;
        continue;
      }
      if (t == "operator") {
        name = "operator";
        name_line = cur().line;
        ++i_;
        while (!at_end() && tok() != "(" && tok() != ";" && tok() != "{") {
          name += tok();
          ++i_;
        }
        if (name == "operator" && tok() == "(" && tok(1) == ")") {
          name += "()";
          i_ += 2;
        }
        name_fresh = true;
        continue;
      }
      if (is_ident_tok(t)) {
        name = tilde ? "~" + t : t;
        tilde = false;
        name_line = cur().line;
        ++i_;
        while (tok() == "::" && is_ident_tok(tok(1))) {
          name += "::" + tok(1);
          i_ += 2;
        }
        name_fresh = true;
        continue;
      }
      if (t == "<") {
        skip_angles();
        name_fresh = false;
        continue;
      }
      if (t == "(" && name_fresh && !name.empty()) {
        skip_balanced("(", ")");
        if (finish_signature(name, name_line)) return;
        continue;
      }
      if (t == "(") {
        skip_balanced("(", ")");
        name_fresh = false;
        continue;
      }
      if (t == "[") {
        skip_balanced("[", "]");
        name_fresh = false;
        continue;
      }
      name_fresh = false;
      ++i_;
    }
  }

  /// After `name(...)`: skims qualifiers and decides definition vs
  /// declaration. Returns true when the statement was fully handled.
  bool finish_signature(const std::string& name, std::size_t name_line) {
    while (!at_end()) {
      const std::string& t = tok();
      if (t == "{") {
        register_definition(name, name_line);
        ++i_;
        return true;
      }
      if (t == ";") {
        record_declaration(name);
        pending_ = 0;
        ++i_;
        return true;
      }
      if (t == "=") {
        ++i_;
        if (tok() == "default" || tok() == "delete" || tok() == "0") {
          record_declaration(name);
        }
        skip_statement();
        pending_ = 0;
        return true;
      }
      if (t == ":") {  // constructor initializer list
        ++i_;
        while (!at_end()) {
          if (tok() == "{") break;  // body
          if (tok() == "(") {
            skip_balanced("(", ")");
            continue;
          }
          if (tok() == "<") {
            skip_angles();
            continue;
          }
          if (is_ident_tok(tok()) || tok() == "::" || tok() == ",") {
            ++i_;
            continue;
          }
          if (is_ident_tok(tok(0)) && tok(1) == "{") {
            ++i_;
            continue;
          }
          // Brace init of a member: IDENT was consumed above, so a '{' here
          // after a ',' chain is an init argument list, not the body — but
          // we cannot tell; treat "{ preceded by ident-consumed" as init.
          break;
        }
        if (tok() == "{") {
          // Either the body or a member brace-init. Heuristic: a body brace
          // is followed by statement-ish tokens; a member init brace is
          // followed (after its balanced group) by ',' or '{'. Resolve by
          // balanced lookahead.
          const std::size_t save = i_;
          skip_balanced("{", "}");
          if (tok() == "," || tok() == "{") {
            // It was an init brace; continue skimming from after it.
            if (tok() == ",") ++i_;
            return finish_signature(name, name_line);
          }
          // It was the body: rewind and register.
          i_ = save;
          register_definition(name, name_line);
          ++i_;
          return true;
        }
        skip_statement();
        pending_ = 0;
        return true;
      }
      if (t == ",") {
        // Multiple declarators (`int f(), g;`) or a parenthesized variable
        // initializer — treat as a plain declaration statement.
        record_declaration(name);
        skip_statement();
        pending_ = 0;
        return true;
      }
      if (t == "const" || t == "noexcept" || t == "override" || t == "final" ||
          t == "mutable" || t == "&" || t == "&&" || t == "throw") {
        ++i_;
        if (tok() == "(") skip_balanced("(", ")");
        continue;
      }
      if (t == "->") {  // trailing return type
        ++i_;
        while (!at_end() && (is_ident_tok(tok()) || tok() == "::" ||
                             tok() == "*" || tok() == "&" || tok() == "const")) {
          if (tok(1) == "<") {
            ++i_;
            skip_angles();
          } else {
            ++i_;
          }
        }
        continue;
      }
      if (t == "[") {
        skip_balanced("[", "]");
        continue;
      }
      if (is_ident_tok(t)) {
        // Unknown trailing macro qualifier, e.g. PPROX_EXCLUDES(mutex_).
        ++i_;
        if (tok() == "(") skip_balanced("(", ")");
        continue;
      }
      // Anything else: not a function after all.
      skip_statement();
      pending_ = 0;
      return true;
    }
    return true;
  }

  void record_declaration(const std::string& name) {
    if (pending_ == 0 || name.empty()) return;
    std::string qn = scope_prefix();
    if (!qn.empty()) qn += "::";
    qn += name;
    graph_.decl_annotations[qn] |= pending_;
    pending_ = 0;
  }

  void register_definition(const std::string& name, std::size_t line) {
    std::string qn = scope_prefix();
    if (!qn.empty()) qn += "::";
    qn += name;
    Fn& f = graph_.get_or_create(qn);
    if (f.file.empty()) {
      f.file = file_;
      f.line = line;
    }
    f.annotations |= pending_;
    pending_ = 0;
    // i_ currently points at the body '{'; the span begins after it.
    scopes_.push_back(
        {ScopeKind::kFunction, name, graph_.index.at(qn), i_ + 1});
  }

  // --- function bodies -----------------------------------------------------

  /// Inside a body the parser only tracks brace nesting; everything else is
  /// a pass's business, replayed later over the recorded span.
  void body_token() {
    const std::string& t = tok();
    if (t == "{") {
      scopes_.push_back({ScopeKind::kBlock, "", -1, 0});
      ++i_;
      return;
    }
    if (t == "}") {
      if (!scopes_.empty()) {
        const Scope closing = scopes_.back();
        scopes_.pop_back();
        if (closing.kind == ScopeKind::kFunction && closing.fn >= 0) {
          graph_.fns[static_cast<std::size_t>(closing.fn)].bodies.push_back(
              {tu_, closing.body_begin, i_});
        }
      }
      ++i_;
      return;
    }
    ++i_;
  }

  int tu_;
  const std::vector<Tok>& toks_;
  std::string file_;
  Graph& graph_;
  std::vector<Scope> scopes_;
  std::size_t i_ = 0;
  unsigned pending_ = 0;
};

}  // namespace

void Graph::add_tu(std::string path, std::vector<Tok> toks) {
  const int tu = static_cast<int>(tus.size());
  tus.push_back({std::move(path), std::move(toks)});
  Parser parser(tu, *this);
  parser.parse();
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

std::map<std::string, std::vector<int>> index_by_last(const Graph& g) {
  std::map<std::string, std::vector<int>> by_last;
  for (std::size_t i = 0; i < g.fns.size(); ++i) {
    by_last[last_component(g.fns[i].qname)].push_back(static_cast<int>(i));
  }
  return by_last;
}

std::vector<int> resolve_name(
    const Graph& g, const std::map<std::string, std::vector<int>>& by_last,
    const Fn& caller, const std::string& name) {
  std::vector<int> targets;
  if (name.find("::") != std::string::npos) {
    // Qualified: exact or suffix match against scanned names.
    for (std::size_t t = 0; t < g.fns.size(); ++t) {
      const std::string& qn = g.fns[t].qname;
      if (qn == name ||
          (qn.size() > name.size() + 2 &&
           qn.compare(qn.size() - name.size() - 2, 2, "::") == 0 &&
           qn.compare(qn.size() - name.size(), name.size(), name) == 0)) {
        targets.push_back(static_cast<int>(t));
      }
    }
  } else {
    // Unqualified or member call: prefer the caller's own class, else fall
    // back to every scanned function with this name (the documented
    // virtual-call / unknown-receiver policy).
    if (!caller.cls.empty()) {
      const auto it = g.index.find(caller.cls + "::" + name);
      if (it != g.index.end()) targets.push_back(it->second);
    }
    if (targets.empty()) {
      const auto it = by_last.find(name);
      if (it != by_last.end()) targets = it->second;
    }
  }
  return targets;
}

// ---------------------------------------------------------------------------
// Keyed baselines and report tail
// ---------------------------------------------------------------------------

bool parse_keyed_baseline(const std::string& path, const std::string& anchor,
                          std::map<std::string, std::string>& entries) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::size_t anchor_pos = text.find("\"" + anchor + "\"");
  if (anchor_pos == std::string::npos) return false;
  std::size_t pos = text.find('[', anchor_pos);
  if (pos == std::string::npos) return false;

  auto read_string = [&text](std::size_t from, std::string& out,
                             std::size_t& end) {
    const std::size_t q1 = text.find('"', from);
    if (q1 == std::string::npos) return false;
    std::size_t q2 = q1 + 1;
    while (q2 < text.size() && text[q2] != '"') {
      if (text[q2] == '\\') ++q2;
      ++q2;
    }
    if (q2 >= text.size()) return false;
    out = text.substr(q1 + 1, q2 - q1 - 1);
    end = q2 + 1;
    return true;
  };

  while (true) {
    const std::size_t key_pos = text.find("\"key\"", pos);
    if (key_pos == std::string::npos) break;
    const std::size_t colon = text.find(':', key_pos + 5);
    if (colon == std::string::npos) break;
    std::string key;
    std::size_t after = 0;
    if (!read_string(colon + 1, key, after)) break;
    std::string why;
    const std::size_t why_pos = text.find("\"why\"", after);
    const std::size_t next_key = text.find("\"key\"", after);
    if (why_pos != std::string::npos &&
        (next_key == std::string::npos || why_pos < next_key)) {
      const std::size_t wcolon = text.find(':', why_pos + 5);
      std::size_t wend = 0;
      if (wcolon != std::string::npos) read_string(wcolon + 1, why, wend);
    }
    entries[key] = why;
    pos = after;
  }
  return true;
}

bool write_keyed_baseline(const std::string& path, const std::string& anchor,
                          const std::map<std::string, std::string>& entries) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"" << anchor << "\": [";
  bool first = true;
  for (const auto& [key, why] : entries) {
    out << (first ? "" : ",") << "\n    {\"key\": \"" << json_escape(key)
        << "\",\n     \"why\": \"" << json_escape(why) << "\"}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
  return true;
}

namespace {

void print_json(const std::string& mode, const std::vector<Finding>& findings,
                std::size_t files) {
  std::cout << "{\n  \"mode\": \"" << mode << "\",\n  \"files\": " << files
            << ",\n  \"total\": " << findings.size() << ",\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : findings) {
    std::cout << (first ? "" : ",") << "\n    {\"path\": \""
              << json_escape(f.path) << "\", \"line\": " << f.line
              << ", \"rule\": \"" << f.rule << "\", \"key\": \""
              << json_escape(f.key) << "\", \"chain\": \""
              << json_escape(f.chain) << "\", \"message\": \""
              << json_escape(f.message) << "\"}";
    first = false;
  }
  std::cout << (first ? "" : "\n  ") << "]\n}\n";
}

}  // namespace

int report(const PassSpec& spec, const Options& opts,
           std::vector<Finding>& findings, std::size_t files) {
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.path, a.line, a.key) <
                            std::tie(b.path, b.line, b.key);
                   });

  if (!opts.baseline_write.empty()) {
    std::map<std::string, std::string> old_whys;
    // Best-effort carry-over of existing justifications by key.
    parse_keyed_baseline(opts.baseline_write, spec.anchor, old_whys);
    std::map<std::string, std::string> entries;
    for (const Finding& f : findings) {
      if (f.rule == spec.bare_rule) continue;  // never baselinable
      const auto it = old_whys.find(f.key);
      entries[f.key] = it != old_whys.end() && !it->second.empty()
                           ? it->second
                           : spec.default_why;
    }
    if (!write_keyed_baseline(opts.baseline_write, spec.anchor, entries)) {
      std::cerr << "pprox_lint: cannot write baseline " << opts.baseline_write
                << "\n";
      return 2;
    }
    std::cout << "pprox_lint: wrote " << entries.size() << " " << spec.anchor
              << " baseline entr" << (entries.size() == 1 ? "y" : "ies")
              << " to " << opts.baseline_write << "\n";
    return 0;
  }

  if (opts.json) {
    print_json(spec.mode, findings, files);
  } else if (opts.baseline.empty()) {
    for (const Finding& f : findings) {
      std::cerr << f.path << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
  }

  if (!opts.baseline.empty()) {
    std::map<std::string, std::string> base;
    if (!parse_keyed_baseline(opts.baseline, spec.anchor, base)) {
      std::cerr << "pprox_lint: cannot parse " << spec.anchor << " baseline "
                << opts.baseline << "\n";
      return 2;
    }
    std::map<std::string, int> current;
    bool regressed = false;
    for (const Finding& f : findings) {
      current[f.key] = 1;
      const bool bare = f.rule == spec.bare_rule;
      if (!bare && base.count(f.key) != 0) continue;  // ratcheted, silent
      // New key (or a bare suppression, which is never baselinable): print
      // the full finding — in ratchet mode only regressions make noise.
      if (!opts.json) {
        std::cerr << f.path << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";
      }
      std::cerr << "pprox_lint: REGRESSION: "
                << (bare ? "bare suppression is never baselinable: "
                         : "new " + spec.what + " violation not in baseline: ")
                << f.key << "\n";
      regressed = true;
    }
    std::size_t stale = 0;
    for (const auto& [key, why] : base) {
      (void)why;
      if (current.count(key) == 0) {
        std::cerr << "pprox_lint: note: baseline entry no longer fires "
                     "(tighten with --baseline-write): "
                  << key << "\n";
        ++stale;
      }
    }
    if (regressed) return 1;
    if (!opts.json) {
      std::cout << "pprox_lint: " << files << " file(s), " << findings.size()
                << " " << spec.what << " finding(s), all within baseline";
      if (stale != 0) {
        std::cout << " (" << stale << " stale entr"
                  << (stale == 1 ? "y" : "ies") << ")";
      }
      std::cout << "\n";
    }
    return 0;
  }

  if (!findings.empty()) {
    std::cerr << findings.size() << " " << spec.what << " finding(s) in "
              << files << " file(s)\n";
    return 1;
  }
  if (!opts.json) {
    std::cout << "pprox_lint: " << files << " file(s) " << spec.what
              << " clean\n";
  }
  return 0;
}

}  // namespace cg
