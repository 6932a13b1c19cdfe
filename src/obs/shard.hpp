#pragma once
// Per-process telemetry shards for multi-process studies.
//
// Under `--procs=N` each worker writes two append-only JSONL files next
// to the study's lease log:
//
//   trace-shard-<k>.jsonl    one line per completed span (streamed by a
//                            Tracer record hook the moment each span
//                            closes, so a SIGKILLed worker leaves every
//                            finished span on disk)
//   metrics-shard-<k>.jsonl  one line per *completed* cell: its status,
//                            lease generation, wall time and
//                            runtime::RunMetrics (per-cache hits and
//                            misses, phase seconds), keyed by the same
//                            Journal::cell_key fingerprint the lease
//                            log uses
//
// The cell records are the exactly-once layer: a cell whose owner died
// mid-evaluation re-leases and re-evaluates elsewhere, producing a
// second record for the same key — the Aggregator dedupes last-wins in
// sorted filename order, as the Reducer keeps each cell's last done
// record in log order.  Since every per-cell field is a pure function of
// (seed, benchmark, compiler) on clean runs, merged counters equal the
// single-process run's no matter how cells were partitioned or how many
// times workers were killed.
//
// Both files are exec::LineLog files, so they tolerate torn tails in
// both directions: a worker appends each span as it closes and each
// row's cell records in one write, and newline-terminates a torn tail
// before appending; the Aggregator skips lines that fail to decode.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/trace.hpp"
#include "runtime/outcome.hpp"

namespace a64fxcc::obs {

inline constexpr int kTelemetryFormatVersion = 1;

/// Shard filenames for spawn index k.  The "trace-"/"metrics-" prefixes
/// set them apart from the result shards of older builds (prefix
/// "shard-", Reducer::shard_files).
[[nodiscard]] std::string trace_shard_name(int spawn_index);
[[nodiscard]] std::string metrics_shard_name(int spawn_index);

/// One completed cell's telemetry, recorded by the worker that
/// evaluated it immediately before the lease completes.
struct CellTelemetry {
  std::uint64_t key = 0;  ///< Journal::cell_key fingerprint
  std::string benchmark;
  std::string compiler;
  runtime::CellStatus status = runtime::CellStatus::Ok;
  int gen = 0;  ///< lease generation (attempt) that was evaluated
  int pid = 0;  ///< evaluating process
  double wall_seconds = 0;
  runtime::RunMetrics metrics;
};

/// One span line read back from a trace shard: the record plus the pid
/// that wrote it (stamped per line so a merged trace can map each
/// process to its own row).
struct SpanShardRecord {
  Tracer::Record record;
  int pid = 0;
};

[[nodiscard]] std::string encode_cell(const CellTelemetry& c);
[[nodiscard]] std::optional<CellTelemetry> decode_cell(std::string_view line);

[[nodiscard]] std::string encode_span(const Tracer::Record& r, int pid);
[[nodiscard]] std::optional<SpanShardRecord> decode_span(
    std::string_view line);

}  // namespace a64fxcc::obs
