#pragma once
// Structured execution events: the engine-facing replacement for the old
// raw `progress` callback.  Every (benchmark x compiler) cell emits a
// JobStarted event and exactly one terminal JobFinished/JobFailed event,
// which carries the cell's runtime::RunMetrics, so the CLI can render
// live progress, the metrics sink can fold the cell's cost, and tests
// can assert on exactly what the engine did.
//
// Sinks may be called concurrently from engine workers; every
// implementation of EventSink::on_event must be thread-safe.  Event
// *ordering* across cells is scheduling-dependent — consumers must key
// on (row, col), never on arrival order.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/outcome.hpp"

namespace a64fxcc::exec {

enum class EventKind : std::uint8_t {
  JobStarted,   ///< a worker picked up one (benchmark x compiler) cell
  JobFinished,  ///< cell evaluated OK; model_seconds/wall_seconds filled
  JobFailed,    ///< cell terminally failed (status + detail filled in)
  // -- multi-process lifecycle (src/distrib/ supervisor) --------------
  WorkerSpawned,    ///< supervisor forked a worker process (worker =
                    ///< spawn index, count = pid)
  WorkerExited,     ///< a worker was reaped (worker = spawn index,
                    ///< count = pid, detail = "exit N"/"signal N")
  WorkerRespawned,  ///< a replacement worker was forked after a crash
                    ///< (worker = new spawn index, count = new pid)
  CellReleased,     ///< leases of a dead/expired owner were released for
                    ///< re-lease (count = cells released, detail = owner)
};

[[nodiscard]] inline const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::JobStarted: return "job-started";
    case EventKind::JobFinished: return "job-finished";
    case EventKind::JobFailed: return "job-failed";
    case EventKind::WorkerSpawned: return "worker-spawned";
    case EventKind::WorkerExited: return "worker-exited";
    case EventKind::WorkerRespawned: return "worker-respawned";
    case EventKind::CellReleased: return "cell-released";
  }
  return "?";
}

struct Event {
  EventKind kind = EventKind::JobStarted;
  std::string benchmark{};
  std::string compiler{};
  std::size_t row = 0;  ///< cell coordinates in the result table
  std::size_t col = 0;
  int worker = 0;  ///< engine worker index that ran the job
  /// Modeled best-of-10 time of the cell (JobFinished only; infinity for
  /// invalid cells).
  double model_seconds = 0;
  /// Host wall-clock spent evaluating the cell (terminal events only).
  double wall_seconds = 0;
  /// Worker lifecycle events only: the pid, or the number of released
  /// cells (CellReleased).
  std::uint64_t count = 0;
  /// Classified failure (JobFailed).  Ok otherwise.
  runtime::CellStatus status = runtime::CellStatus::Ok;
  /// Failure diagnostic text (JobFailed), or the worker lifecycle
  /// detail.
  std::string detail{};
  /// What evaluating the cell cost (terminal events only).
  runtime::RunMetrics metrics{};
};

class EventSink {
 public:
  virtual ~EventSink() = default;
  /// Must be safe to call concurrently from multiple workers.
  virtual void on_event(const Event& e) = 0;
};

/// Thread-safe sink that records every event for post-hoc inspection
/// (tests).
class CollectingSink final : public EventSink {
 public:
  void on_event(const Event& e) override {
    const std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(e);
  }

  [[nodiscard]] std::vector<Event> events() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  /// Number of events of one kind.
  [[nodiscard]] std::uint64_t count(EventKind k) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::uint64_t>(
        std::count_if(events_.begin(), events_.end(),
                      [k](const Event& e) { return e.kind == k; }));
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// Verbosity of the stream renderer (`--log-level=`).
///   Quiet    — nothing (the sink still counts completed cells)
///   Progress — one line per terminal cell and per worker lifecycle
///              event
///   Debug    — additionally job starts, and after each terminal line
///              the cell's phase times and cache hits/misses
enum class LogLevel : std::uint8_t { Quiet, Progress, Debug };

/// Parse "quiet"/"progress"/"debug"; false on anything else.
[[nodiscard]] inline bool parse_log_level(const std::string& s, LogLevel* out) {
  if (s == "quiet") { *out = LogLevel::Quiet; return true; }
  if (s == "progress") { *out = LogLevel::Progress; return true; }
  if (s == "debug") { *out = LogLevel::Debug; return true; }
  return false;
}

/// Thread-safe sink that renders one line per completed or failed cell
/// (at Debug, also job starts and each cell's cost) —
/// what the CLI attaches for `--log-level=progress|debug`.  Each event
/// is formatted into one buffer and written with a single fwrite under
/// one lock, so lines from concurrent workers can never interleave
/// mid-line.
class StreamSink final : public EventSink {
 public:
  explicit StreamSink(std::FILE* out = stderr,
                      LogLevel level = LogLevel::Progress)
      : out_(out), level_(level) {}

  void on_event(const Event& e) override {
    char buf[768];
    int n = -1;
    const std::lock_guard<std::mutex> lock(mu_);
    switch (e.kind) {
      case EventKind::JobFinished:
        ++done_;
        if (level_ < LogLevel::Progress) return;
        n = std::snprintf(
            buf, sizeof buf,
            "  [w%d] %-18s x %-10s %10.4gs model, %.3fs wall (%zu done)\n",
            e.worker, e.benchmark.c_str(), e.compiler.c_str(), e.model_seconds,
            e.wall_seconds, done_);
        break;
      case EventKind::JobFailed:
        ++done_;
        if (level_ < LogLevel::Progress) return;
        n = std::snprintf(buf, sizeof buf,
                          "  [w%d] %-18s x %-10s %10s  %s (%zu done)\n",
                          e.worker, e.benchmark.c_str(), e.compiler.c_str(),
                          runtime::marker(e.status), e.detail.c_str(), done_);
        break;
      case EventKind::JobStarted:
        if (level_ < LogLevel::Debug) return;
        n = std::snprintf(buf, sizeof buf, "  [w%d] %-18s x %-10s started\n",
                          e.worker, e.benchmark.c_str(), e.compiler.c_str());
        break;
      case EventKind::WorkerSpawned:
      case EventKind::WorkerExited:
      case EventKind::WorkerRespawned:
      case EventKind::CellReleased:
        // Worker death and re-leasing are normal events in a
        // crash-isolated study, but worth a line at Progress: the user
        // should see that a shard died and the study kept going.
        if (level_ < LogLevel::Progress) return;
        n = std::snprintf(buf, sizeof buf, "  [w%d] %s pid %llu %s\n",
                          e.worker, to_string(e.kind),
                          static_cast<unsigned long long>(e.count),
                          e.detail.c_str());
        break;
    }
    if (n <= 0) return;
    std::size_t len = std::min(static_cast<std::size_t>(n), sizeof buf - 1);
    // At Debug a terminal line is followed by what the cell cost.
    if (level_ == LogLevel::Debug && (e.kind == EventKind::JobFinished ||
                                      e.kind == EventKind::JobFailed)) {
      const runtime::RunMetrics& m = e.metrics;
      const int k = std::snprintf(
          buf + len, sizeof buf - len,
          "  [w%d] %-18s x %-10s compile %.6fs explore %.6fs measure %.6fs;"
          " hits/misses compile %d/%d plan %d/%d estimate %d/%d"
          " analysis %d/%d\n",
          e.worker, e.benchmark.c_str(), e.compiler.c_str(), m.compile_seconds,
          m.explore_seconds, m.measure_seconds, m.compile_cache_hits,
          m.compile_cache_misses, m.plan_cache_hits, m.plan_cache_misses,
          m.estimate_cache_hits, m.estimate_cache_misses,
          m.analysis_cache_hits, m.analysis_cache_misses);
      if (k > 0)
        len = std::min(len + static_cast<std::size_t>(k), sizeof buf - 1);
    }
    // One write per event: concurrent lines stay whole.
    std::fwrite(buf, 1, len, out_);
  }

 private:
  std::mutex mu_;
  std::FILE* out_;
  LogLevel level_;
  std::size_t done_ = 0;
};

}  // namespace a64fxcc::exec
