#pragma once
// Public API: orchestrates the whole study.
//
// Quickstart:
//
//   a64fxcc::core::Study study({.scale = 0.05});
//   const auto table = study.run_suite(a64fxcc::kernels::polybench_suite(0.05));
//   std::cout << a64fxcc::report::render_ansi(table);
//   const auto s = a64fxcc::core::summarize(table);
//   std::cout << "median best-compiler speedup: " << s.median_best_gain;
//
// The Study runs every benchmark under the five compiler environments on
// the A64FX machine model using the paper's measurement methodology, and
// computes the aggregate claims of Section 3 (summarize / overall_summary).

#include <memory>
#include <string>
#include <vector>

#include "cache/service.hpp"
#include "exec/events.hpp"
#include "kernels/benchmark.hpp"
#include "obs/trace.hpp"
#include "report/figure2.hpp"
#include "runtime/fault.hpp"
#include "runtime/harness.hpp"

namespace a64fxcc::core {

struct StudyOptions {
  /// Linear problem-size scale (1.0 = paper sizes).
  double scale = 1.0;
  std::uint64_t seed = 42;
  /// Target machine; defaults to the A64FX model.
  machine::Machine machine = machine::a64fx();
  /// Compiler environments (columns); defaults to the paper's five with
  /// FJtrad first (the baseline).
  std::vector<compilers::CompilerSpec> compilers =
      compilers::paper_compilers();
  /// Worker threads for run_suite/run_all, the calling thread included:
  /// 1 runs the serial loop on the calling thread, 0 resolves to
  /// hardware_concurrency.  A job is one benchmark row, whose cells
  /// run in column order on one thread.
  /// Results are bit-identical for every value — cells draw from
  /// per-cell RNG streams (see runtime::cell_stream), never from a
  /// shared sequence — and so are each cell's RunMetrics.
  int jobs = 0;
  /// Optional structured event sink (non-owning; must outlive the
  /// Study calls).  Receives JobStarted and one terminal event
  /// carrying the cell's RunMetrics per cell;
  /// implementations must be thread-safe.  Replaces the old raw
  /// `progress` callback.
  exec::EventSink* sink = nullptr;
  /// Optional span collector (non-owning; must outlive the Study
  /// calls).  The study opens a "cell" span per cell; the harness adds
  /// compile/explore/measure.
  /// Diagnostics-only: tables are byte-identical with tracing on/off.
  obs::Tracer* tracer = nullptr;
  /// Apply the paper-documented quirk DB (off for the ablation bench).
  bool apply_quirks = true;
  /// Deterministic crash injection (off by default; see
  /// runtime::FaultPlan).
  runtime::FaultPlan faults;
  /// Shared cache tier (non-owning; must outlive the Study).  Null lets
  /// the Study own a private cache::Service — pass one to share warm
  /// cell models (the "cells" map) across several studies (a re-study
  /// with new seeds), and to inspect their stats from outside.
  cache::Service* cache_service = nullptr;
};

/// Aggregate claims over one table (Sec. 3 reports these per suite).
struct Summary {
  int benchmarks = 0;
  /// Speedup of the best valid compiler over FJtrad, per benchmark.
  std::vector<double> best_gains;
  double mean_best_gain = 1;
  double median_best_gain = 1;
  double max_best_gain = 1;
  /// How many benchmarks FJtrad itself wins (gain <= ~1.02 for all).
  int fjtrad_wins = 0;
  /// Per-column win counts (who is fastest).
  std::vector<int> wins_per_compiler;
  /// Exploration-eligible benchmarks (report::Row::explores_placements)
  /// whose winner ran at another placement than the one recommended for
  /// it (report::Row::recommended).
  int nonrecommended_placements = 0;
};

class Study {
 public:
  explicit Study(StudyOptions opt = {});

  /// Run one suite under all configured compilers.
  [[nodiscard]] report::Table run_suite(
      const std::vector<kernels::Benchmark>& suite) const;

  /// Run all 108 benchmarks (Figure 2).
  [[nodiscard]] report::Table run_all() const;

  [[nodiscard]] const runtime::Harness& harness() const noexcept {
    return harness_;
  }
  [[nodiscard]] const StudyOptions& options() const noexcept { return opt_; }

  /// The cache tier this study's harness registered on — the caller's
  /// (options().cache_service) or the study-owned one.  Inspect stats
  /// here.
  [[nodiscard]] cache::Service& cache_service() const noexcept {
    return opt_.cache_service != nullptr ? *opt_.cache_service
                                         : *owned_service_;
  }

 private:
  StudyOptions opt_;
  /// Tier of last resort when the caller brought none (declared before
  /// harness_: the harness registers its "cells" map during
  /// construction).
  std::unique_ptr<cache::Service> owned_service_;
  runtime::Harness harness_;
};

/// Compute the Section-3 aggregates for a table.
[[nodiscard]] Summary summarize(const report::Table& t);

}  // namespace a64fxcc::core
