// Integration tests: the figure-level claims of the paper, asserted at
// paper scale.  These are the regression net for the calibration — if a
// model change breaks the *shape* of a reproduced result, it fails here
// before it reaches the bench binaries.

#include <gtest/gtest.h>

#include "core/study.hpp"

namespace {

using namespace a64fxcc;

constexpr double kScale = 1.0;

const report::Table& micro_table() {
  static const report::Table t = [] {
    core::StudyOptions opt;
    opt.scale = kScale;
    return core::Study(std::move(opt))
        .run_suite(kernels::microkernel_suite(kScale));
  }();
  return t;
}

const report::Table& polybench_table() {
  static const report::Table t = [] {
    core::StudyOptions opt;
    opt.scale = kScale;
    return core::Study(std::move(opt))
        .run_suite(kernels::polybench_suite(kScale));
  }();
  return t;
}

TEST(Integration, MicroKernelsFjtradDominates) {
  const auto s = core::summarize(micro_table());
  // Sec. 3.1: FJtrad best nearly everywhere; median gain ~0.
  EXPECT_GE(s.fjtrad_wins, 14);
  EXPECT_LT(s.median_best_gain, 1.10);
}

TEST(Integration, MicroKernelsGnuErrorCells) {
  int gnu_errors = 0;
  for (const auto& row : micro_table().rows)
    if (!row.cells[4].valid()) ++gnu_errors;
  EXPECT_EQ(gnu_errors, 6);
}

TEST(Integration, MicroKernelsPeakIsAnIntegerCKernel) {
  double peak = 0;
  std::string peak_name;
  for (const auto& row : micro_table().rows) {
    for (std::size_t c = 1; c < row.cells.size(); ++c) {
      const double g = report::gain_vs_baseline(row, c);
      if (g > peak) {
        peak = g;
        peak_name = row.benchmark;
      }
    }
  }
  EXPECT_GT(peak, 1.8);  // paper: 2.4x
  EXPECT_LT(peak, 4.0);
  EXPECT_EQ(micro_table().rows[18].benchmark, "k19");
}

TEST(Integration, PolybenchClangFamilyDominates) {
  const auto& t = polybench_table();
  const auto s = core::summarize(t);
  // Sec. 3.1: roles reverse; the clang-based columns win most kernels.
  const int clang_wins =
      s.wins_per_compiler[1] + s.wins_per_compiler[2] + s.wins_per_compiler[3];
  EXPECT_GT(clang_wins, 15);
  EXPECT_EQ(s.wins_per_compiler[4], 0);  // GNU wins nothing here
  EXPECT_GT(s.median_best_gain, 1.5);
}

TEST(Integration, PolybenchMvtIsThePollyHeadline) {
  for (const auto& row : polybench_table().rows) {
    if (row.benchmark != "mvt") continue;
    const double g = report::gain_vs_baseline(row, 3);  // LLVM+Polly column
    EXPECT_GT(g, 1e4);  // paper: >250,000x at full scale
    return;
  }
  FAIL() << "mvt missing";
}

TEST(Integration, TwoMmLlvmBeatsFjtradBig) {
  for (const auto& row : polybench_table().rows) {
    if (row.benchmark != "2mm") continue;
    EXPECT_GT(report::gain_vs_baseline(row, 2), 4.0);  // LLVM column
    return;
  }
  FAIL() << "2mm missing";
}

TEST(Integration, FiberFujitsuDominatesWithExceptions) {
  core::StudyOptions opt;
  opt.scale = kScale;
  const auto t =
      core::Study(std::move(opt)).run_suite(kernels::fiber_suite(kScale));
  const auto s = core::summarize(t);
  EXPECT_GE(s.fjtrad_wins, 5);
  // mvmc must be an exception (Sec. 3.2).
  for (const auto& row : t.rows) {
    if (row.benchmark != "mvmc") continue;
    double best = 0;
    for (std::size_t c = 1; c < row.cells.size(); ++c)
      best = std::max(best, report::gain_vs_baseline(row, c));
    EXPECT_GT(best, 1.10);
  }
}

TEST(Integration, SpecIntGnuBeatsFjtradUniversally) {
  core::StudyOptions opt;
  opt.scale = kScale;
  const auto t =
      core::Study(std::move(opt)).run_suite(kernels::spec_cpu_suite(kScale));
  int st_total = 0, gnu_wins = 0;
  for (const auto& row : t.rows) {
    const auto& p = row.cells[0].placement;
    if (p.ranks * p.threads != 1) continue;  // fp multithreaded entries
    ++st_total;
    if (report::gain_vs_baseline(row, 4) > 1.0) ++gnu_wins;
  }
  EXPECT_EQ(st_total, 10);
  EXPECT_GE(gnu_wins, 9);
}

TEST(Integration, Figure1XeonAdvantageShape) {
  const runtime::Harness ha(machine::a64fx(), 42);
  const runtime::Harness hx(machine::xeon_cascadelake(), 42);
  const auto fj = compilers::fjtrad();
  const auto ic = compilers::icc();
  int above_one = 0, total = 0;
  double two_mm = 0;
  for (const auto& b : kernels::polybench_suite(kScale)) {
    const double ta = ha.run(fj, b).best_seconds;
    const double tx = hx.run(ic, b).best_seconds;
    ++total;
    if (ta / tx > 1.0) ++above_one;
    if (b.name() == "2mm") two_mm = ta / tx;
  }
  EXPECT_GT(above_one, total * 2 / 3);  // pervasive Xeon advantage
  EXPECT_GT(two_mm, 5.0);               // the Figure-1 callout
}

TEST(Integration, QuirkAblationSeparatesEncodedFromEmergent) {
  core::StudyOptions with;
  with.scale = kScale;
  core::StudyOptions without;
  without.scale = kScale;
  without.apply_quirks = false;
  const auto tw =
      core::Study(std::move(with)).run_suite(kernels::microkernel_suite(kScale));
  const auto to = core::Study(std::move(without))
                      .run_suite(kernels::microkernel_suite(kScale));
  const auto sw = core::summarize(tw);
  const auto so = core::summarize(to);
  // Micro aggregates are emergent: the quirk DB only adds error cells.
  EXPECT_NEAR(sw.median_best_gain, so.median_best_gain, 0.05);
  int invalid_with = 0, invalid_without = 0;
  for (const auto& r : tw.rows)
    for (const auto& c : r.cells)
      if (!c.valid()) ++invalid_with;
  for (const auto& r : to.rows)
    for (const auto& c : r.cells)
      if (!c.valid()) ++invalid_without;
  EXPECT_EQ(invalid_with, 9);   // 6 GNU RTEs + 3 clang-family k22 CEs
  EXPECT_EQ(invalid_without, 0);
}

}  // namespace
