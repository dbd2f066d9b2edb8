// Fixture: a justified PPROX-LIFETIME-OK suppression in a two-line comment
// block above the return it covers (pprox_lint --lifetime). A suppression
// inside a block of comment-only lines moves to the first line below the
// block, so the fixture must lint clean (empty golden, exit 0).
// Analyzer input only — never compiled into a target.
#include <string>
#include <string_view>

std::string_view cached() {
  static std::string storage = "interned for the process lifetime";
  std::string_view v = storage;
  // PPROX-LIFETIME-OK(return): storage is function-static, so the view
  // never dangles
  return v;
}
