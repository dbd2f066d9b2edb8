// Entry points of the pprox_lint call-graph rule families. The driver
// (pprox_lint.cpp) parses the command line into one cg::Options and hands
// it to the selected pass; each pass is its own TU over the shared front
// end of lint_callgraph.hpp. Every run() returns the report() exit code:
// 0 clean / within baseline, 1 findings or regressions, 2 IO errors.
#pragma once

#include "lint_callgraph.hpp"

namespace hotpath {
int run(const cg::Options& opts);  // DESIGN.md §11
}
namespace locks {
int run(const cg::Options& opts);  // DESIGN.md §12
}
namespace ct {
int run(const cg::Options& opts);  // DESIGN.md §13
}
namespace lifetime {
int run(const cg::Options& opts);  // DESIGN.md §14
}
