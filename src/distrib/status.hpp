#pragma once
// Durable live status for multi-process studies.
//
// The supervisor periodically publishes one JSON document,
// `<shard-dir>/status.json`, via write-to-temp + atomic rename: readers
// (`a64fxcc status --shard-dir=D`, dashboards, a watch loop) always see
// a complete document, never a torn one, and the file survives the
// supervisor being SIGKILLed — it simply stops updating, which is
// itself the signal (`elapsed_seconds` freezes).
//
// Everything in the document is diagnostics-only supervisor state:
// publishing can never change a table byte.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace a64fxcc::distrib {

inline constexpr int kStatusFormatVersion = 1;

/// One worker's row in the roster (alive or already exited).
struct WorkerStatus {
  int spawn_index = 0;
  int pid = 0;
  std::string state;   ///< "alive" | "exited"
  std::string detail;  ///< exit description once exited ("signal 9", ...)
};

/// The supervisor's view of one running (or finished) study.
struct StudyStatus {
  std::string phase;  ///< "resume", "running", "inline-drain",
                      ///< "draining", "done"
  double elapsed_seconds = 0;   ///< since run_suite started
  std::size_t cells_total = 0;
  std::size_t cells_done = 0;
  std::size_t cells_leased = 0;    ///< currently out on lease
  std::size_t cells_resumed = 0;   ///< done before this run started
  std::size_t cells_released = 0;  ///< leases reclaimed from the dead
  int workers_spawned = 0;
  int worker_respawns = 0;
  int max_generation = 0;  ///< highest lease generation seen (attempts)
  bool degraded = false;
  /// Remaining / observed completion rate; < 0 when no rate yet.
  double eta_seconds = -1;
  std::vector<WorkerStatus> workers;

  [[nodiscard]] std::size_t cells_remaining() const noexcept {
    return cells_total > cells_done ? cells_total - cells_done : 0;
  }
};

/// One-object JSON document (scalars first, then the workers array).
[[nodiscard]] std::string encode_status(const StudyStatus& st);
[[nodiscard]] std::optional<StudyStatus> decode_status(std::string_view doc);

/// Publish atomically: write `<path>.tmp`, then rename over `path`.
bool write_status(const StudyStatus& st, const std::string& path);

/// Read back one published document (nullopt: unreadable/undecodable).
[[nodiscard]] std::optional<StudyStatus> load_status(
    const std::string& path);

/// Human rendering for `a64fxcc status`.
[[nodiscard]] std::string render_status(const StudyStatus& st);

}  // namespace a64fxcc::distrib
