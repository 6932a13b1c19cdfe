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
// A resume pass re-evaluates crashed cells at a later lease generation,
// whose outcome may differ (the injected crash decides anew); the
// Supervisor numbers each pass's shards after the previous pass's, so
// file order is creation order and the newer outcome wins.
//
// A resumed pass reads each shard once: load_new_shards loads the
// earlier passes' shards for its resume decision, loads only the shards
// the pass itself wrote at reduce time, and assemble builds the table
// from that one journal.

#include <cstdint>
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

/// The study's cell keys (Journal::cell_key), row-major: one row per
/// benchmark of `suite`, one column per compiler of `opt`.  The lease
/// queue's cell universe and the order assemble reads cells in.
[[nodiscard]] std::vector<std::uint64_t> cell_keys(
    const std::vector<kernels::Benchmark>& suite,
    const core::StudyOptions& opt);

/// Name tag of the result shard a degraded supervisor drains inline
/// (`shard-<k>-inline.jsonl`; a worker's is `shard-<k>.jsonl`).
inline constexpr char kInlineShardTag[] = "-inline";

/// One shard file as a load found it.
struct LoadedShard {
  std::string path;
  std::uintmax_t bytes = 0;  ///< its size just before it was read
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

  /// Bring `j` from the shards `loaded` lists up to every shard of
  /// `dir`: load only the files it does not list yet, in merge order,
  /// and list them.  Starting from an empty journal and list, any
  /// sequence of calls leaves `j` and `stats` as one load_shards of the
  /// directory would.  Returns false, loading nothing, when that cannot
  /// hold: a listed file changed size or vanished, or a new file sorts
  /// before a listed one.
  static bool load_new_shards(const std::string& dir, core::Journal& j,
                              std::vector<LoadedShard>& loaded,
                              ReduceStats* stats = nullptr);

  /// The canonical table for `suite` under `opt`, with each cell's
  /// outcome moved out of `j` (the suite's cell keys are distinct, as
  /// the work queue requires).  Cells absent from `j` (a degraded run
  /// that lost work) come out as CellStatus::Crashed with an explicit
  /// diagnostic, and are counted in stats->missing — never silently
  /// blank.
  [[nodiscard]] static report::Table assemble(
      core::Journal& j, const std::vector<kernels::Benchmark>& suite,
      const core::StudyOptions& opt, ReduceStats* stats = nullptr);

  /// load_shards of `dir` into a fresh journal, then assemble.
  [[nodiscard]] static report::Table merge(
      const std::string& dir, const std::vector<kernels::Benchmark>& suite,
      const core::StudyOptions& opt, ReduceStats* stats = nullptr);
};

}  // namespace a64fxcc::distrib
