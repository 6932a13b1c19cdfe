#pragma once
// Shard-journal merge: folds every `shard-*.jsonl` a multi-process
// study wrote into one canonical result table.
//
// Determinism: shards are loaded in sorted filename order and duplicate
// keys dedupe last-complete-line-wins (Journal::load), so the merge is
// a pure function of the shard directory contents.  Duplicates arise
// two ways.  Lease-expiry or crash re-evaluation within a pass is
// byte-identical (measurements are pure functions of (seed, benchmark,
// compiler) — see core/cell.hpp), so which line wins is value-invisible
// and the merged table is byte-identical to a clean single-process run.
// A resume pass re-evaluates failed cells at a later lease generation,
// whose outcome may differ (injected faults decide anew); the
// Supervisor numbers each pass's shards after the previous pass's, so
// file order is creation order and the newer outcome wins.

#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/study.hpp"
#include "kernels/benchmark.hpp"
#include "report/figure2.hpp"

namespace a64fxcc::distrib {

struct ReduceStats {
  std::size_t shards = 0;      ///< shard files merged
  std::size_t entries = 0;     ///< distinct cells restored
  std::size_t duplicates = 0;  ///< lines that overwrote an earlier key
  std::size_t missing = 0;     ///< table cells found in no shard
};

class Reducer {
 public:
  /// Every `shard-*.jsonl` under `dir`, sorted by name (= merge order).
  [[nodiscard]] static std::vector<std::string> shard_files(
      const std::string& dir);

  /// Load all shards of `dir` into `j` (tolerating torn tails, v1
  /// lines, and empty files — Journal::load semantics).  Returns the
  /// number of distinct keys added.
  static std::size_t load_shards(const std::string& dir, core::Journal& j,
                                 ReduceStats* stats = nullptr);

  /// Assemble the canonical table for `suite` under `opt` from the
  /// shards of `dir`.  Cells absent from every shard (a degraded run
  /// that lost work) come out as CellStatus::Crashed with an explicit
  /// diagnostic, and are counted in stats->missing — never silently
  /// blank.
  [[nodiscard]] static report::Table merge(
      const std::string& dir, const std::vector<kernels::Benchmark>& suite,
      const core::StudyOptions& opt, ReduceStats* stats = nullptr);
};

}  // namespace a64fxcc::distrib
