#pragma once
// Metrics registry over the exec event stream.
//
// Registry is the passive data half: named counters and fixed-bucket
// histograms, mergeable (counter sums, bucket-wise histogram merge) so
// per-process registries of a multi-process study can be combined into
// one document, and exportable as JSON with the hit-rate gauges
// recomputed from the merged counters.  Registry::add_cell is the one
// fold from a cell's runtime::RunMetrics to counters and histograms.
//
// MetricsSink is an EventSink that folds each cell's terminal event
// into a Registry through add_cell, the same fold the cross-process
// Aggregator applies to shard records, counts the worker lifecycle
// events of a `--procs` run, and exports it all as one JSON document
// (`--metrics=out.json`).  It chains an optional inner sink, so
// `--log-level=progress --metrics=m.json` composes: the stream
// renderer and the registry see the same events.
//
// Like tracing, metrics are diagnostics-only: they observe wall-clock
// and event counts but never feed results, so tables stay byte-identical
// with metrics on or off.

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>

#include "cache/service.hpp"
#include "exec/events.hpp"

namespace a64fxcc::obs {

/// Fixed-bucket log-scale histogram of seconds.  Bucket i counts
/// samples <= bound(i) = 1e-6 * 4^i (1µs .. ~17.9min), plus an
/// overflow bucket; count/sum/min/max make means recoverable.
struct Histogram {
  static constexpr int kBuckets = 16;

  std::uint64_t buckets[kBuckets] = {};
  std::uint64_t overflow = 0;
  std::uint64_t count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = 0;

  [[nodiscard]] static double bound(int i) noexcept {
    double b = 1e-6;
    for (int k = 0; k < i; ++k) b *= 4.0;
    return b;
  }

  void add(double v) noexcept {
    count += 1;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
    for (int i = 0; i < kBuckets; ++i) {
      if (v <= bound(i)) {
        buckets[i] += 1;
        return;
      }
    }
    overflow += 1;
  }

  /// Fold another histogram in.  Buckets align by construction (the
  /// bounds are fixed), so the merge is exact: merging shards produces
  /// the histogram a single process observing all samples would have
  /// built.  Merging an empty histogram is the identity.
  void merge(const Histogram& o) noexcept {
    for (int i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
    overflow += o.overflow;
    count += o.count;
    sum += o.sum;
    if (o.count > 0) {
      if (o.min < min) min = o.min;
      if (o.max > max) max = o.max;
    }
  }
};

/// The counter name Registry::add_cell uses for a terminal cell status
/// ("cells_ok", "cells_compile_error", ...).
[[nodiscard]] const char* status_counter_name(runtime::CellStatus st);

/// Passive counters + histograms, the mergeable data behind
/// MetricsSink and the unit the cross-process Aggregator combines.
struct Registry {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Histogram> histograms;

  /// Current value of one counter (0 when never touched).
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  /// Fold another registry in: counters sum, histograms merge
  /// bucket-wise.  Merging an empty registry is the identity.
  void merge(const Registry& o);

  /// Fold one finished cell in: counters jobs_started, the status
  /// counter, {compile,plan,estimate,analysis}_cache_{hits,misses} and
  /// analysis_cache_invalidations; histograms cell_wall_seconds and
  /// phase_{compile,explore,measure}_seconds.  A zero count or phase
  /// time creates no counter or histogram.  MetricsSink and
  /// Aggregator::merged_registry both fold cells here, so the two paths
  /// produce the same names by construction.
  void add_cell(runtime::CellStatus status, double wall_seconds,
                const runtime::RunMetrics& m);

  /// The whole registry as one JSON object: {"version":1,
  /// "counters":{...},"gauges":{"compile_cache_hit_rate":..,
  /// "estimate_cache_hit_rate":..,"plan_cache_hit_rate":..,
  /// "analysis_cache_hit_rate":..},
  /// "histograms":{name:{count,sum,min,max,buckets:[{le,count}..]}}}.
  /// Gauges are recomputed from the (possibly merged) counters, never
  /// stored — a merged registry's hit rates are the fleet-wide rates.
  [[nodiscard]] std::string to_json() const;
};

class MetricsSink final : public exec::EventSink {
 public:
  /// Events are forwarded to `inner` (if any) before being folded in.
  explicit MetricsSink(exec::EventSink* inner = nullptr) : inner_(inner) {}

  void on_event(const exec::Event& e) override;

  /// Current value of one counter (0 when never touched).  Counter
  /// names: the per-cell ones of Registry::add_cell, the lifecycle
  /// counters workers_spawned, workers_exited, worker_respawns and
  /// cells_released, and — after fold_cache_stats —
  /// cache_<name>_{hits,misses,entries,bytes} per registered tier cache.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  /// Snapshot the cache tier's per-cache counters into the registry as
  /// cache_<name>_{hits,misses,entries,bytes} (bytes is the tier's
  /// reported estimate, not a measured allocation).  Absolute values,
  /// not deltas: calling again overwrites with the newer snapshot.  The
  /// CLI calls this once before `--metrics` flush so the JSON carries
  /// the tier state alongside the event-folded counters.
  void fold_cache_stats(const cache::Service& svc);

  /// A copy of the registry as folded so far.  The CLI's --metrics
  /// artifact merges it through obs::Aggregator, on top of the worker
  /// telemetry shards under --procs.
  [[nodiscard]] Registry snapshot() const;


 private:
  mutable std::mutex mu_;
  exec::EventSink* inner_;
  Registry reg_;
};

}  // namespace a64fxcc::obs
