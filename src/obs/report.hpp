#pragma once
// `a64fxcc obs report` — offline summaries and diffs over the JSON
// artifacts this tree writes: a metrics registry (`--metrics=out.json`,
// single-process or merged) or a Chrome trace (`--trace=out.json`,
// single-process or merged).
//
//   obs report A.json               summarize one artifact
//   obs report A.json B.json        diff two runs of the same kind:
//                                   counter deltas, phase-time deltas
//
// A diff reports; it never gates.  Wall-clock deltas between two runs
// are noise-bound, so pass/fail on speed belongs to the interleaved
// end-to-end benchmark (e2ebench/), not to a single pair of artifacts.
//
// The parser reads only our own writers' output (obs::Registry::to_json
// and the tracer/aggregator trace JSON) — keys are unique per scope by
// construction — and is tolerant in the durable-log tradition: unknown
// fields are skipped, a file that is neither kind is an error, never a
// crash.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace a64fxcc::obs {

/// One phaseSummary entry of a trace document.
struct PhaseTotal {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0;
  double max_seconds = 0;
};

/// The count/sum/min/max header of one histogram (buckets are not
/// needed for summaries or diffs).
struct HistTotal {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
};

/// A parsed metrics or trace artifact.
struct ReportDoc {
  enum class Kind { Metrics, Trace };
  Kind kind = Kind::Metrics;
  std::string path;
  std::map<std::string, std::uint64_t> counters;   // metrics only
  std::map<std::string, double> gauges;            // metrics only
  std::map<std::string, HistTotal> histograms;     // metrics only
  std::vector<PhaseTotal> phases;                  // trace only
};

/// Write one rendered artifact (`Tracer::to_chrome_json()`,
/// `MetricsSink::to_json()`, `Registry::to_json()` or
/// `Aggregator::merged_trace_json()`) to `path`.  False on I/O failure.
bool write_artifact(const std::string& path, std::string_view text);

/// Load and classify one artifact.  nullopt (with *err set) when the
/// file cannot be read or is neither a metrics nor a trace document.
[[nodiscard]] std::optional<ReportDoc> load_report_doc(
    const std::string& path, std::string* err);

/// Human-readable one-artifact summary.
[[nodiscard]] std::string summarize_report(const ReportDoc& doc);

/// Render the diff of two artifacts of the same kind (base -> cur):
/// changed counters and gauges, and every time metric — a phase's total
/// seconds (trace) or a histogram's sum (metrics) — with its relative
/// change.
[[nodiscard]] std::string diff_reports(const ReportDoc& base,
                                       const ReportDoc& cur);

}  // namespace a64fxcc::obs
