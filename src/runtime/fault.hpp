#pragma once
// Deterministic crash injection, the one fault the study models.
//
// FaultPlan is the test rig that proves crash recovery works: it
// decides per (seed, benchmark, compiler, attempt) whether one
// evaluation attempt of a cell crashes, by hashing the cell's identity
// (runtime::cell_stream) — never worker count, scheduling order or
// wall-clock — so an injected study is exactly as reproducible as a
// clean one.  Inside a `--procs` worker a crash is a real process death
// (the supervisor re-leases the cell at the next generation, which is
// the next attempt; a replacement forked once the respawn budget is
// spent skips to that generation without dying); evaluated in-process
// it is a classified CellStatus::Crashed outcome.
//
// RunContext carries one attempt into the harness: whether it crashes,
// its attempt index (named in the crash diagnostic) and an optional
// tracer.

#include <cstdint>
#include <optional>
#include <string>

namespace a64fxcc::obs {
class Tracer;  // forward: keeps this header dependency-light
}

namespace a64fxcc::runtime {

struct FaultPlan {
  /// Probability that one evaluation attempt of a cell crashes.  Inside
  /// a distrib worker the crash _exit(139)s the whole process mid-cell;
  /// evaluated in-process it is a classified CellStatus::Crashed
  /// outcome, so `--inject-faults=crash:p` is always safe to pass
  /// without `--procs`.
  double crash = 0;

  [[nodiscard]] bool enabled() const noexcept { return crash > 0; }

  /// Whether attempt `attempt` of one cell crashes.  Deterministic: it
  /// depends only on the arguments, so results are bit-identical for
  /// any worker count, and a cell that crashes at attempt 0 may
  /// deterministically survive attempt 1.
  [[nodiscard]] bool crashes(std::uint64_t seed, const std::string& benchmark,
                             const std::string& compiler, int attempt) const;

  /// Parse "crash:P" with P in [0,1].  Returns nullopt on anything
  /// else.
  [[nodiscard]] static std::optional<FaultPlan> parse(const std::string& text);

  /// Canonical textual form (round-trips through parse).
  [[nodiscard]] std::string spec() const;
};

/// One evaluation attempt threaded through Harness::run.  Diagnostics
/// aside, a default context evaluates the cell exactly like
/// Harness::run without one.
struct RunContext {
  /// The attempt crashes at performance run 5 (FaultPlan::crashes).
  bool crash = false;
  /// Attempt index this context evaluates (0 in process; the lease
  /// generation in a `--procs` study).
  int attempt = 0;
  /// Optional span collector: the harness opens compile/explore/measure
  /// spans on it.  Diagnostics-only — never consulted for results.
  obs::Tracer* tracer = nullptr;
};

}  // namespace a64fxcc::runtime
