#pragma once
// Cross-process telemetry aggregation.
//
// A multi-process study leaves one trace shard + one metrics shard per
// worker spawn next to its lease log (see obs/shard.hpp), plus the
// supervisor's own in-memory tracer (lifecycle spans) and MetricsSink
// (worker lifecycle counters).  The Aggregator merges all of it into
//
//   * one Chrome trace: every process gets its own pid row (workers
//     named by spawn index, the supervisor labeled as such via
//     process_name metadata events), spans interleaved on the shared
//     steady-clock time axis the supervisor forked the workers with;
//   * one metrics Registry: per-cell telemetry records deduped
//     last-wins by cell key in sorted filename order — as the Reducer
//     keeps each cell's last done record, which is what makes the
//     deterministic counters (cells by status, cache
//     hits/misses) of a crash-recovered N-process run equal the
//     single-process run's — folded through Registry::add_cell, the
//     same fold the in-process MetricsSink applies, then any explicitly
//     added registries (counter sums, bucket-wise histogram merge,
//     gauges recomputed).
//
// Aggregation is read-only over the shard directory and diagnostics-
// only by the PR 3 contract: nothing here can change a table byte.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/shard.hpp"
#include "obs/trace.hpp"

namespace a64fxcc::obs {

struct AggregateStats {
  std::size_t trace_shards = 0;    ///< trace-shard-*.jsonl files read
  std::size_t metrics_shards = 0;  ///< metrics-shard-*.jsonl files read
  std::size_t spans = 0;           ///< span lines decoded
  std::size_t cells = 0;           ///< distinct cell keys after dedupe
  std::size_t duplicate_cells = 0; ///< superseded records (re-leases)
  std::size_t skipped_lines = 0;   ///< torn/alien lines ignored
};

/// One process's spans in the merged trace.
struct ProcessSpans {
  int pid = 0;
  std::string name;  ///< trace row label ("supervisor", "worker-0003")
  std::vector<Tracer::Record> records;
};

class Aggregator {
 public:
  /// Scan `dir` for telemetry shards (sorted filename order) and fold
  /// them in.  Missing/empty shards are fine — a worker that died
  /// before its first span simply contributes nothing; returns false
  /// only when the directory itself cannot be read.  Callable once per
  /// directory; repeated calls accumulate.
  bool load_dir(const std::string& dir);

  /// Add one process's in-memory spans (the supervisor's own tracer).
  void add_process(int pid, const std::string& name,
                   std::vector<Tracer::Record> records);

  /// Add an event-folded registry to merge on top of the cell-derived
  /// counters (the supervisor's MetricsSink snapshot: worker lifecycle
  /// counters and anything else only the parent observed).
  void add_registry(Registry reg);

  /// All processes with spans, in load/add order.
  [[nodiscard]] const std::vector<ProcessSpans>& processes() const noexcept {
    return procs_;
  }

  /// Deduped cell telemetry, in cell-key order.
  [[nodiscard]] std::vector<CellTelemetry> cells() const;

  /// The merged metrics registry: deduped per-cell records folded into
  /// counters/histograms, then every added registry merged in.
  [[nodiscard]] Registry merged_registry() const;

  /// One Chrome trace_event JSON document over every process: a
  /// process_name metadata event per pid (supervisor sorted first),
  /// B/E pairs per span ordered by sequence within each (pid, tid)
  /// row, and a phaseSummary merged across all processes.
  [[nodiscard]] std::string merged_trace_json() const;

  [[nodiscard]] const AggregateStats& stats() const noexcept {
    return stats_;
  }

 private:
  ProcessSpans& proc_for(int pid, const std::string& name);
  void fold_cell(CellTelemetry c);

  std::vector<ProcessSpans> procs_;
  std::map<std::uint64_t, CellTelemetry> cells_;  ///< deduped last-wins
  std::vector<Registry> extra_;
  AggregateStats stats_;
};

}  // namespace a64fxcc::obs
