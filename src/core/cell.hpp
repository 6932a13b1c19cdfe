#pragma once
// One (benchmark x compiler) cell evaluated with crash injection and
// failure classification — extracted from Study::run_suite so the
// in-process engine path and the distrib worker processes run cells
// through literally the same code.  Everything here is a pure function
// of (options, cell identity, attempt): results never depend on which
// thread, process, or lease generation evaluated the cell, which is
// what makes a crash-recovered multi-process study byte-identical to a
// clean single-process run.

#include "core/study.hpp"

namespace a64fxcc::core {

/// Outcome of one cell evaluation.
struct CellResult {
  runtime::MeasuredRun run;
  /// Cache and phase metrics of the evaluation.
  runtime::RunMetrics metrics;
};

/// Evaluate one attempt of one cell through `memo`, the memo of its
/// benchmark row (see runtime::RowMemo).  `attempt` seeds the crash
/// decision: the in-process study always passes 0; distrib workers pass
/// the cell's lease generation, so a re-leased cell (previous owner
/// died) sees the next deterministic decision.  A crashing attempt
/// comes back as a classified CellStatus::Crashed outcome.
[[nodiscard]] CellResult evaluate_cell(const runtime::Harness& h,
                                       const StudyOptions& opt,
                                       const kernels::Benchmark& bench,
                                       const compilers::CompilerSpec& spec,
                                       runtime::RowMemo& memo,
                                       int attempt = 0);

}  // namespace a64fxcc::core
