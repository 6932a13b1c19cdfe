#pragma once
// One (benchmark x compiler) cell evaluated under the study's full
// policy path: deterministic fault injection, retry with exponential
// backoff, and failure classification — extracted from Study::run_suite
// so the in-process engine path and the distrib worker processes run
// cells through literally the same code.  Everything here is a pure
// function of (options, cell identity, attempt): results never depend
// on which thread, process, or lease generation evaluated the cell,
// which is what makes a crash-recovered multi-process study
// byte-identical to a clean single-process run.

#include <functional>

#include "core/study.hpp"

namespace a64fxcc::core {

/// Outcome of one cell evaluation through the policy path.
struct CellResult {
  runtime::MeasuredRun run;
  /// Cache, phase and backoff metrics accumulated across every attempt.
  runtime::RunMetrics metrics;
  /// The attempt index that produced `run` (== base_attempt when the
  /// first try landed).
  int attempt = 0;
};

/// Notification before each retry sleep: the attempt that failed, its
/// classified outcome, and the deterministic backoff chosen.
using RetryFn =
    std::function<void(int attempt, const runtime::MeasuredRun& failed,
                       double backoff_seconds)>;

/// Hook fired when a FaultKind::Crash is decided for an attempt and the
/// caller can die for real — distrib workers _exit(139) here, which is
/// how PR 2's injection becomes the test harness for actual process
/// death.  The hook must not return.  Callers that cannot die (the
/// thread-engine study, the supervisor's inline drain) pass none and
/// get a classified CellStatus::Crashed outcome from the harness
/// instead.
using CrashFn = std::function<void(int attempt)>;

/// Evaluate one cell.  `base_attempt` seeds the fault schedule: the
/// in-process study always passes 0; distrib workers pass the cell's
/// lease generation so a re-leased cell (previous owner died) sees the
/// next deterministic fault decision — exactly like an in-process
/// retry.  Retries are budgeted relative to base_attempt
/// (opt.max_retries extra tries, as before).
[[nodiscard]] CellResult evaluate_cell(const runtime::Harness& h,
                                       const StudyOptions& opt,
                                       const kernels::Benchmark& bench,
                                       const compilers::CompilerSpec& spec,
                                       int base_attempt = 0,
                                       const RetryFn& on_retry = {},
                                       const CrashFn& on_crash = {});

/// Deterministic backoff before retry `attempt + 1`: exponential in the
/// attempt with a jitter factor in [0.5, 1.5) drawn from the cell's RNG
/// stream — a pure function of cell identity, never of wall-clock or
/// scheduling.  Exposed for the supervisor's respawn pacing and tests.
[[nodiscard]] double retry_backoff(double base, const std::string& benchmark,
                                   const std::string& compiler, int attempt);

}  // namespace a64fxcc::core
