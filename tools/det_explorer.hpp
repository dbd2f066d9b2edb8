// pprox::det explorer API, used by tools/pprox_check. The explorer
// (det_explorer.cpp) defines the schedule-point hooks that common/sync.hpp's
// primitives call under -DPPROX_MODEL_CHECK, and drives them: it runs a
// model body under every explored schedule. Only model-check trees build it.
#pragma once

#include <cstdint>
#include <functional>
#include <source_location>
#include <string>
#include <vector>

#include "common/sync.hpp"

namespace pprox::det {

// Explicit logical-time step for models (a schedule point like any other).
void advance_time(std::uint64_t delta_ms,
                  SourceLoc loc = loc_of(std::source_location::current()));

// Model-facing invariant check: prints the numbered interleaving trace with
// a replayable schedule and exits non-zero. Callable from any managed
// thread.
[[noreturn]] void model_fail(const std::string& message);
inline void model_check(bool ok, const char* message) {
  if (!ok) model_fail(message);
}

struct Options {
  enum class Mode { kDfs, kPct };
  Mode mode = Mode::kDfs;
  // DFS: max context switches away from a still-enabled thread per execution.
  int preemption_bound = 2;
  bool sleep_sets = true;
  // Safety caps: an execution longer than max_steps is truncated (counted,
  // reported, treated as a leaf); exploration stops after max_execs
  // executions (0 = unbounded).
  std::uint64_t max_steps = 20000;
  std::uint64_t max_execs = 0;
  // PCT: `pct_iters` random-priority executions with `pct_depth - 1`
  // priority-change points, seeded from `seed`.
  std::uint64_t seed = 1;
  int pct_iters = 500;
  int pct_depth = 3;
  // Replay: follow this exact schedule (chosen managed-thread id per step),
  // then fall back to the default policy once exhausted.
  std::vector<int> replay;
  bool verbose = false;
  const char* model_name = "model";
};

struct Report {
  std::uint64_t executions = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t truncated = 0;  // executions cut off at max_steps
  bool exhaustive = false;      // DFS ran the whole bounded tree
};

// Runs `body` (as managed thread 0) under every explored schedule. On an
// invariant violation or deadlock this does not return: the trace is printed
// and the process exits 1. Not reentrant.
Report explore(const Options& options, const std::function<void()>& body);

}  // namespace pprox::det
