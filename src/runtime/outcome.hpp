#pragma once
// Cell-level failure taxonomy.
//
// Failed cells are first-class data in the paper — Figure 2 explicitly
// marks GNU's six micro-kernel runtime errors and Kernel 22's "compiler
// error" — so a failed (benchmark x compiler) cell must never abort the
// study.  Every cell terminates in exactly one CellStatus:
//
//   Ok            valid measurement
//   CompileError  the compiler model rejected the kernel (paper: "CE")
//   RuntimeError  the produced executable fails at run time (paper: "RE")
//   Crashed       the evaluation crashed: an injected crash, or an
//                 unexpected exception ("XX"; beyond the paper — the
//                 study-survives guarantee)
//
// The first three mirror compilers::CompileOutcome::Status (the quirk DB
// maps paper-documented bugs onto them); Crashed can only be produced by
// the execution layer.  This header is dependency-free so
// the exec event layer can name statuses, and carry a cell's RunMetrics,
// without linking runtime.

#include <cstdint>
#include <stdexcept>
#include <string>

namespace a64fxcc::runtime {

enum class CellStatus : std::uint8_t {
  Ok,
  CompileError,
  RuntimeError,
  Crashed,
};

/// Long-form label (CSV/JSON "status" column; the first three strings
/// predate the taxonomy and must stay byte-stable).
[[nodiscard]] inline const char* to_string(CellStatus st) {
  switch (st) {
    case CellStatus::Ok: return "ok";
    case CellStatus::CompileError: return "compiler error";
    case CellStatus::RuntimeError: return "runtime error";
    case CellStatus::Crashed: return "crash";
  }
  return "?";
}

/// Figure-2 cell marker (ANSI table).
[[nodiscard]] inline const char* marker(CellStatus st) {
  switch (st) {
    case CellStatus::Ok: return "ok";
    case CellStatus::CompileError: return "CE";
    case CellStatus::RuntimeError: return "RE";
    case CellStatus::Crashed: return "XX";
  }
  return "?";
}

/// Every status, in enum order.  Consumers that render one row/counter
/// per status (merged metrics, `obs report`) iterate this instead of
/// hand-listing the enum, so a new status cannot be silently dropped.
inline constexpr CellStatus kAllStatuses[] = {
    CellStatus::Ok,
    CellStatus::CompileError,
    CellStatus::RuntimeError,
    CellStatus::Crashed,
};

/// Parse a long-form label back into a status (journal decode).
[[nodiscard]] inline bool parse_status(const std::string& label,
                                       CellStatus* out) {
  for (const CellStatus st : kAllStatuses) {
    if (label == to_string(st)) {
      *out = st;
      return true;
    }
  }
  return false;
}

/// What evaluating one cell cost: memo traffic (filled by its row's
/// runtime::RowMemo) and per-phase wall-clock.  The one per-cell
/// telemetry record: the study's terminal event carries it to the
/// metrics sink, and a `--procs` worker writes it to its metrics shard;
/// obs::Registry::add_cell folds it into counters and histograms on both
/// paths.  Diagnostics-only: none of it ever feeds a result.
struct RunMetrics {
  // Row-memo lookups (runtime::RowMemo); the names predate the memo.
  int compile_cache_hits = 0;    ///< compile outcomes reused
  int compile_cache_misses = 0;  ///< compilers::compile actually ran
  int plan_cache_hits = 0;       ///< perf::analyze results reused
  int plan_cache_misses = 0;     ///< perf::analyze actually ran
  int estimate_cache_hits = 0;   ///< perf::evaluate results reused
  int estimate_cache_misses = 0; ///< perf::evaluate actually ran
  // In-pipeline analysis::Manager traffic, accumulated on compile misses
  // only (a compile hit does no analysis work).  Like every counter
  // above, a pure function of the cell and the cells before it in its
  // row.
  int analysis_cache_hits = 0;
  int analysis_cache_misses = 0;
  int analysis_cache_invalidations = 0;
  double compile_seconds = 0;  ///< compile + reference compile
  double explore_seconds = 0;  ///< placement exploration trials
  double measure_seconds = 0;  ///< 10-run performance phase
};

/// Classified cell failure: thrown inside a cell evaluation (an injected
/// crash, a machine with no feasible placement) and caught at the study
/// layer, which records it as the cell's terminal outcome instead of
/// aborting the batch.
class CellError : public std::runtime_error {
 public:
  CellError(CellStatus status, const std::string& msg)
      : std::runtime_error(msg), status_(status) {}
  [[nodiscard]] CellStatus status() const noexcept { return status_; }

 private:
  CellStatus status_;
};

}  // namespace a64fxcc::runtime
