#pragma once
// The reduce of a multi-process study: the canonical result table, read
// from the outcomes the lease log's done records carry.
//
// Determinism: each cell's outcome is the one its last done record in
// log order carries (LeaseQueue::outcome), so the reduce is a pure
// function of the lease log.  Duplicates arise two ways.  Lease-expiry
// or crash re-evaluation within a pass is byte-identical (measurements
// are pure functions of (seed, benchmark, compiler) — see
// core/cell.hpp), so which done wins is value-invisible and the table is
// byte-identical to a clean single-process run.  A resume pass reopens
// crashed cells and re-evaluates them at a later lease generation, whose
// outcome may differ (the injected crash decides anew); its done records
// come later in the log, so the newer outcome wins.

#include <cstdint>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "distrib/work_queue.hpp"
#include "kernels/benchmark.hpp"
#include "report/figure2.hpp"

namespace a64fxcc::distrib {

struct ReduceStats {
  std::size_t entries = 0;  ///< cells whose outcome the log carries
  std::size_t missing = 0;  ///< table cells with no outcome in the log
};

/// The study's cell keys (Journal::cell_key), row-major: one row per
/// benchmark of `suite`, one column per compiler of `opt`.  The lease
/// queue's cell universe and the order assemble reads cells in.
[[nodiscard]] std::vector<std::uint64_t> cell_keys(
    const std::vector<kernels::Benchmark>& suite,
    const core::StudyOptions& opt);

class Reducer {
 public:
  /// Every `shard-*.jsonl` under `dir`, sorted by name: the result
  /// shards older builds wrote next to their lease log (`shard-<k>` and
  /// `shard-<k>-inline`).  Nothing reads them any more; a resume ignores
  /// them.
  [[nodiscard]] static std::vector<std::string> shard_files(
      const std::string& dir);

  /// The canonical table for `suite` under `opt`, each cell decoded
  /// from its outcome in `queue` (replayed over `cell_keys(suite, opt)`).
  /// Cells with no outcome that decodes (a run whose last workers died
  /// before the queue drained) come out as CellStatus::Crashed with an
  /// explicit diagnostic, and are counted in stats->missing — never
  /// silently blank.
  [[nodiscard]] static report::Table assemble(
      const LeaseQueue& queue, const std::vector<kernels::Benchmark>& suite,
      const core::StudyOptions& opt, ReduceStats* stats = nullptr);

  /// Replay `dir/leases.jsonl` against `cell_keys(suite, opt)`, then
  /// assemble.  A directory without a readable log reduces to missing
  /// cells.
  [[nodiscard]] static report::Table merge(
      const std::string& dir, const std::vector<kernels::Benchmark>& suite,
      const core::StudyOptions& opt, ReduceStats* stats = nullptr);
};

}  // namespace a64fxcc::distrib
