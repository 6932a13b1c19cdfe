// Tests for the report renderers and the core Study/summarize API.

#include <gtest/gtest.h>

#include "core/study.hpp"

namespace {

using namespace a64fxcc;

core::Study small_study() {
  core::StudyOptions opt;
  opt.scale = 0.01;
  return core::Study(std::move(opt));
}

TEST(Study, RunsMicroSuiteEndToEnd) {
  const auto study = small_study();
  const auto t = study.run_suite(kernels::microkernel_suite(0.01));
  ASSERT_EQ(t.rows.size(), 22u);
  ASSERT_EQ(t.compilers.size(), 5u);
  EXPECT_EQ(t.compilers[0], "FJtrad");
  // Every row has 5 cells; baseline always valid on micro kernels.
  for (const auto& r : t.rows) {
    ASSERT_EQ(r.cells.size(), 5u);
    EXPECT_TRUE(r.cells[0].valid()) << r.benchmark;
  }
}

TEST(Study, QuirkCellsInvalid) {
  const auto study = small_study();
  const auto t = study.run_suite(kernels::microkernel_suite(0.01));
  int gnu_errors = 0, clang_errors = 0;
  for (const auto& r : t.rows) {
    if (!r.cells[4].valid()) ++gnu_errors;    // GNU column
    if (!r.cells[1].valid()) ++clang_errors;  // FJclang column
  }
  EXPECT_EQ(gnu_errors, 6);   // Sec. 3.1
  EXPECT_EQ(clang_errors, 1); // Kernel 22
}

TEST(Summarize, ComputesGainsAndWins) {
  const auto study = small_study();
  const auto t = study.run_suite(kernels::microkernel_suite(0.01));
  const auto s = core::summarize(t);
  EXPECT_EQ(s.benchmarks, 22);
  EXPECT_EQ(static_cast<int>(s.best_gains.size()), 22);
  EXPECT_GE(s.max_best_gain, s.median_best_gain);
  EXPECT_GE(s.median_best_gain, 1.0);
  int total_wins = 0;
  for (const int w : s.wins_per_compiler) total_wins += w;
  EXPECT_EQ(total_wins, 22);
}

TEST(Summarize, CountsNonRecommendedPlacementsOfExplorationEligibleRowsOnly) {
  // Each row's winner (its second cell, faster than FJtrad) is judged
  // against that row's own recommendation, and only where the
  // exploration phase chose placements.
  const auto row = [](bool explores, runtime::Placement rec,
                      runtime::Placement won) {
    report::Row r;
    r.explores_placements = explores;
    r.recommended = rec;
    runtime::MeasuredRun base;
    base.best_seconds = 2.0;
    base.placement = rec;
    runtime::MeasuredRun fast;
    fast.best_seconds = 1.0;
    fast.placement = won;
    r.cells = {base, fast};
    return r;
  };
  report::Table t;
  t.compilers = {"FJtrad", "X"};
  t.rows = {row(true, {1, 48}, {1, 48}),   // at its recommendation
            row(false, {1, 1}, {2, 2}),    // not exploration-eligible
            row(true, {4, 12}, {8, 6}),    // elsewhere: counts
            row(true, {1, 12}, {4, 12})};  // a fixed 4x12 would miss it
  EXPECT_EQ(core::summarize(t).nonrecommended_placements, 2);
}

TEST(Report, GainVsBaseline) {
  report::Row row;
  runtime::MeasuredRun base;
  base.best_seconds = 2.0;
  runtime::MeasuredRun fast = base;
  fast.best_seconds = 1.0;
  runtime::MeasuredRun err;
  err.status = runtime::CellStatus::RuntimeError;
  row.cells = {base, fast, err};
  EXPECT_DOUBLE_EQ(report::gain_vs_baseline(row, 1), 2.0);
  EXPECT_DOUBLE_EQ(report::gain_vs_baseline(row, 2), 0.0);
}

TEST(Report, RenderersProduceAllFormats) {
  const auto study = small_study();
  const auto t = study.run_suite(kernels::top500_suite(0.01));
  const auto ansi = report::render_ansi(t);
  EXPECT_NE(ansi.find("babelstream"), std::string::npos);
  EXPECT_NE(ansi.find("Figure 2"), std::string::npos);
  const auto csv = report::render_csv(t);
  EXPECT_NE(csv.find("benchmark,suite,language"), std::string::npos);
  EXPECT_NE(csv.find("hpl"), std::string::npos);
  const auto md = report::render_markdown(t);
  EXPECT_NE(md.find("| hpl |"), std::string::npos);
}

TEST(Report, Fig1RendersBars) {
  std::vector<report::Fig1Entry> e = {{"2mm", 10.0, 0.1}, {"mvt", 5.0, 5.0}};
  const auto s = report::render_fig1(e);
  EXPECT_NE(s.find("2mm"), std::string::npos);
  EXPECT_NE(s.find("100.00x"), std::string::npos);
  EXPECT_NE(s.find("1.00x"), std::string::npos);
}

TEST(Core, EventSinkReplacesProgressCallback) {
  core::StudyOptions opt;
  opt.scale = 0.01;
  exec::CollectingSink sink;
  opt.sink = &sink;
  const core::Study study(std::move(opt));
  (void)study.run_suite(kernels::top500_suite(0.01));
  EXPECT_EQ(sink.count(exec::EventKind::JobStarted), 3u * 5u);
  EXPECT_EQ(sink.count(exec::EventKind::JobFinished), 3u * 5u);
}

}  // namespace
