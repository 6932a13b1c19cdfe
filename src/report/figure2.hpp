#pragma once
// Rendering of the paper's figures:
//  - Figure 2: per-benchmark absolute time-to-solution under the five
//    compilers, color-coded by relative gain over the FJtrad baseline
//    (white ~ parity, green >= 2x highlighted; invalid entries named).
//  - Figure 1: PolyBench slowdown of A64FX (recommended compiler) vs a
//    Xeon reference, log-scale bars.
//
// Output formats: ANSI (terminal heatmap), CSV (machine-readable),
// Markdown (for EXPERIMENTS.md).

#include <string>
#include <vector>

#include "kernels/benchmark.hpp"
#include "runtime/harness.hpp"

namespace a64fxcc::report {

/// One Figure-2 row: a benchmark with its per-compiler measurements
/// (columns ordered as compilers were run; column 0 is the baseline).
struct Row {
  std::string benchmark;
  std::string suite;
  std::string language;
  std::vector<runtime::MeasuredRun> cells;
  /// Whether the placement exploration phase chose the row's placements
  /// (explore_placements, neither single-core nor serial), and the
  /// placement the paper's recommendation implies for the benchmark
  /// (runtime::recommended_for): what core::summarize judges winners by.
  bool explores_placements = false;
  runtime::Placement recommended;
};

struct Table {
  std::vector<std::string> compilers;  ///< column headers
  std::vector<Row> rows;
};

/// Preallocated table skeleton for `suite` on machine `m`: row metadata
/// filled in suite order, every cell default-initialized.  The execution engine
/// writes completed cells by (row, col) index, so rows keep a stable
/// (suite) order no matter in which order jobs finish.
[[nodiscard]] Table make_table(std::vector<std::string> compilers,
                               const std::vector<kernels::Benchmark>& suite,
                               const machine::Machine& m);

/// Relative gain of cell c over the baseline (column 0): >1 is faster
/// than FJtrad.  Infinity/0 propagate for invalid cells.
[[nodiscard]] double gain_vs_baseline(const Row& row, std::size_t c);

[[nodiscard]] std::string render_ansi(const Table& t);
[[nodiscard]] std::string render_csv(const Table& t);
[[nodiscard]] std::string render_markdown(const Table& t);
/// Machine-readable dump (array of row objects) for external tooling.
[[nodiscard]] std::string render_json(const Table& t);

/// Figure 1: slowdown factors (t_a64fx / t_xeon), one bar per kernel,
/// ASCII log-scale rendering.
struct Fig1Entry {
  std::string kernel;
  double t_a64fx = 0;
  double t_xeon = 0;
  [[nodiscard]] double slowdown() const {
    return t_xeon > 0 ? t_a64fx / t_xeon : 0;
  }
};
[[nodiscard]] std::string render_fig1(const std::vector<Fig1Entry>& entries);

}  // namespace a64fxcc::report
