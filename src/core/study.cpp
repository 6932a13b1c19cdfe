#include "core/study.hpp"

#include <algorithm>
#include <chrono>

#include "core/cell.hpp"
#include "exec/engine.hpp"
#include "stats/stats.hpp"

namespace a64fxcc::core {

Study::Study(StudyOptions opt)
    : opt_(std::move(opt)),
      owned_service_(opt_.cache_service == nullptr
                         ? std::make_unique<cache::Service>()
                         : nullptr),
      harness_(opt_.machine, opt_.seed, opt_.apply_quirks,
               &cache_service()) {}

report::Table Study::run_suite(
    const std::vector<kernels::Benchmark>& suite) const {
  std::vector<std::string> names;
  names.reserve(opt_.compilers.size());
  for (const auto& spec : opt_.compilers) names.push_back(spec.name);
  report::Table t = report::make_table(std::move(names), suite, opt_.machine);

  // One job per benchmark row, each writing its own preallocated
  // slots: rows come out in suite order no matter when jobs finish, and
  // per-cell RNG streams make the values themselves independent of
  // scheduling.  A row's cells run in column order through one memo,
  // which shares the row's compiles, plans and evaluations.
  const std::size_t cols = opt_.compilers.size();
  // Cell failures are classified into the table, so an exception escaping
  // a job is an infrastructure fault (a sink bug): for_each_job
  // rethrows the lowest-index one.
  exec::for_each_job(suite.size(), opt_.jobs, [&](std::size_t r, int worker) {
    const auto& bench = suite[r];
    runtime::RowMemo memo;
    for (std::size_t c = 0; c < cols; ++c) {
      const auto& spec = opt_.compilers[c];
      exec::EventSink* const sink = opt_.sink;
      if (sink != nullptr) {
        sink->on_event({.kind = exec::EventKind::JobStarted,
                        .benchmark = bench.name(),
                        .compiler = spec.name,
                        .row = r,
                        .col = c,
                        .worker = worker});
      }
      // Whole-cell span; the harness nests compile/explore/measure
      // under it.
      auto cell_span =
          obs::scoped(opt_.tracer, "cell", bench.name(), spec.name);
      const auto t0 = std::chrono::steady_clock::now();
      CellResult res = evaluate_cell(harness_, opt_, bench, spec, memo);
      const runtime::MeasuredRun& m = res.run;
      t.rows[r].cells[c] = m;
      // Quirk-failed and crashed cells both land here as JobFailed:
      // exactly one terminal event per cell either way.
      if (sink != nullptr) {
        sink->on_event({.kind = m.valid() ? exec::EventKind::JobFinished
                                          : exec::EventKind::JobFailed,
                        .benchmark = bench.name(),
                        .compiler = spec.name,
                        .row = r,
                        .col = c,
                        .worker = worker,
                        .model_seconds = m.best_seconds,
                        .wall_seconds = std::chrono::duration<double>(
                                            std::chrono::steady_clock::now() -
                                            t0)
                                            .count(),
                        .status = m.status,
                        .detail = m.diagnostic,
                        .metrics = std::move(res.metrics)});
      }
    }
  });
  return t;
}

report::Table Study::run_all() const {
  return run_suite(kernels::all_benchmarks(opt_.scale));
}

Summary summarize(const report::Table& t) {
  Summary s;
  s.wins_per_compiler.assign(t.compilers.size(), 0);
  for (const auto& row : t.rows) {
    if (row.cells.empty() || !row.cells[0].valid()) continue;
    s.benchmarks += 1;
    double best_gain = 1.0;  // FJtrad itself is always an option
    std::size_t winner = 0;
    double best_time = row.cells[0].best_seconds;
    for (std::size_t c = 1; c < row.cells.size(); ++c) {
      if (!row.cells[c].valid()) continue;
      const double g = report::gain_vs_baseline(row, c);
      best_gain = std::max(best_gain, g);
      if (row.cells[c].best_seconds < best_time) {
        best_time = row.cells[c].best_seconds;
        winner = c;
      }
    }
    s.best_gains.push_back(best_gain);
    if (best_gain <= 1.02) s.fjtrad_wins += 1;
    s.wins_per_compiler[winner] += 1;
    // Placement is only meaningful on valid cells, and a choice only
    // where the exploration phase ran.
    if (row.explores_placements && row.cells[winner].valid() &&
        !(row.cells[winner].placement == row.recommended)) {
      s.nonrecommended_placements += 1;
    }
  }
  if (!s.best_gains.empty()) {
    s.mean_best_gain = stats::mean(s.best_gains);
    s.median_best_gain = stats::median(s.best_gains);
    s.max_best_gain = stats::max(s.best_gains);
  }
  return s;
}

}  // namespace a64fxcc::core
