#pragma once
// Progress of a multi-process study, read from the files the study
// already writes: its lease log (`<shard-dir>/leases.jsonl`), replayed
// against the study's cell keys exactly as a resuming supervisor
// replays it, and the names of its result shards.  Nothing is published
// for this view, so it reads the same during a run, after it, and after
// every process of the study was killed.
//
// The lease log does not record the cell universe (records for unknown
// keys are ignored), so the reader supplies the keys: distrib::cell_keys
// of the suite and options the study ran with.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace a64fxcc::distrib {

/// One study's queue progress as its files record it.
struct StudyStatus {
  /// "done" when every cell is done, "running" while any lease is
  /// unexpired, "stopped" otherwise (no process holds work: the study
  /// was interrupted, or its leases expired with their owners).
  std::string phase;
  std::size_t cells_total = 0;
  std::size_t cells_done = 0;
  std::size_t cells_leased = 0;   ///< under an unexpired lease
  std::vector<int> owners;        ///< their owner pids, ascending
  std::size_t cells_expired = 0;  ///< leased past their deadline
  int max_generation = 0;         ///< highest lease generation granted
  std::size_t worker_shards = 0;
  std::size_t inline_shards = 0;  ///< a degraded supervisor's inline drain
};

/// Replay `<dir>/leases.jsonl` against `keys` and count the result
/// shards of `dir`.  nullopt when there is no lease log (none is
/// created) or it cannot be opened.
[[nodiscard]] std::optional<StudyStatus> read_status(
    const std::string& dir, std::vector<std::uint64_t> keys);

/// Human rendering for `a64fxcc status`.
[[nodiscard]] std::string render_status(const StudyStatus& st);

}  // namespace a64fxcc::distrib
