// The paper-scale golden table.  tests/golden/table_all_scale1.csv is
// the committed output of
//
//   a64fxcc table all --scale=1.0 --jobs=1 --csv
//
// (seed 42, every suite, all five compilers: 540 cells; the CSV plus
// the CLI's trailing summary line).  The same study is rendered here at
// 1 and 4 workers and must match the file byte for byte, so no change
// to the noise generator, the performance model, the compilers or the
// kernels can move a number without a visible diff.  Re-baselining is deliberate: rerun the command above
// into the file (see tests/golden/README.md) and commit the diff.
//
// The same runs also pin the study's work counters (compiles, plans,
// evaluations, analyses, cell outcomes): a change that adds or drops a
// memo layer, or a cache that stops paying, shows up here even when
// the table stays the same.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/study.hpp"
#include "kernels/benchmark.hpp"
#include "obs/metrics.hpp"
#include "report/figure2.hpp"

namespace {

using namespace a64fxcc;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// "line N: got <a> / want <b>" for the first differing line, or "".
std::string first_difference(const std::string& got, const std::string& want) {
  std::istringstream a(got);
  std::istringstream b(want);
  std::string la, lb;
  for (int n = 1;; ++n) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) return "";
    if (!more_a || !more_b || la != lb)
      return "line " + std::to_string(n) + ":\n  got:  " +
             (more_a ? la : "<end>") + "\n  want: " + (more_b ? lb : "<end>");
  }
}

TEST(GoldenTable, PaperScaleStudyMatchesAtOneAndFourWorkers) {
  const std::string golden =
      read_file(A64FXCC_GOLDEN_DIR "/table_all_scale1.csv");
  ASSERT_FALSE(golden.empty()) << "missing " A64FXCC_GOLDEN_DIR;
  const auto suite = kernels::all_benchmarks(1.0);
  for (const int jobs : {1, 4}) {
    obs::MetricsSink metrics;
    core::StudyOptions opt;
    opt.scale = 1.0;
    opt.jobs = jobs;
    opt.sink = &metrics;
    const report::Table t = core::Study(std::move(opt)).run_suite(suite);
    const auto s = core::summarize(t);
    char summary[128];
    std::snprintf(summary, sizeof summary,
                  "\nmedian best-compiler gain: %.3fx (mean %.3fx, peak %.3fx)\n",
                  s.median_best_gain, s.mean_best_gain, s.max_best_gain);
    const std::string csv = report::render_csv(t) + summary;
    EXPECT_TRUE(csv == golden)
        << "jobs=" << jobs << " differs from the golden table at "
        << first_difference(csv, golden)
        << "\nre-baseline only on purpose: see tests/golden/README.md";

    // Seed-42 work counters.  Each benchmark row evaluates its cells in
    // column order through one memo, so they hold at any worker count.
    // The 15 compile hits are the FJtrad reference lookups of the three
    // library-heavy rows (hpl, candle, ntchem), five per row.  Estimate
    // hits are the explore loop's repeats only: a cell's model carries
    // its winner's characterization, so no lookup follows the measure
    // phase.
    const std::pair<const char*, std::uint64_t> expected[] = {
        {"compile_cache_misses", 540},   {"compile_cache_hits", 15},
        {"plan_cache_misses", 356},      {"plan_cache_hits", 190},
        {"estimate_cache_misses", 2778}, {"estimate_cache_hits", 1373},
        {"analysis_cache_hits", 1854},   {"analysis_cache_misses", 1311},
        {"analysis_cache_invalidations", 51},
        {"cells_ok", 531},               {"cells_compile_error", 3},
        {"cells_runtime_error", 6},
    };
    for (const auto& [name, want] : expected)
      EXPECT_EQ(metrics.counter(name), want) << "jobs=" << jobs << " " << name;
  }
}

}  // namespace
