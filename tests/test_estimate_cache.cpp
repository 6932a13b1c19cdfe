// Estimate memoization at the study level: the explore, measure and
// library-reference lookups of a study go through the harness's
// EstimateCache, and every evaluation either hits or populates it.  The
// harness keys those lookups by fingerprints carried on its inputs, which
// must match fresh ones.

#include <gtest/gtest.h>

#include <map>

#include "core/study.hpp"
#include "ir/fingerprint.hpp"
#include "perf/plan.hpp"

namespace {

using namespace a64fxcc;

TEST(EstimateCacheMetrics, StudyCountsPlanAndEstimateCacheTraffic) {
  // The explore loop of an MPI+OpenMP benchmark sweeps ~40 placements
  // against one plan: expect plan misses ~ distinct compiled kernels
  // and heavy estimate-cache traffic with a nonzero hit count (measure
  // phase + characterization + FJtrad reference reuse).
  core::StudyOptions opt;
  opt.scale = 0.05;
  opt.jobs = 2;
  core::Study study(std::move(opt));
  const auto suite = kernels::top500_suite(0.05);
  const auto t = study.run_suite(suite);
  ASSERT_EQ(t.rows.size(), suite.size());
  const auto& ecache = study.harness().estimate_cache();
  EXPECT_GT(ecache.plan_count(), 0u);
  EXPECT_GT(ecache.size(), 0u);
  EXPECT_GT(ecache.stats().hits, 0u);
  // Every evaluation either hit or populated the cache.
  EXPECT_EQ(ecache.stats().misses, ecache.size());
}

TEST(CarriedFingerprints, OutcomesAndPlanKeysMatchFreshFingerprints) {
  // The study path prints no kernel to key a lookup: compiles key by
  // Benchmark::fingerprint, plans by the fingerprint the compile cache
  // stored on the outcome.  Each carried value must equal a fresh
  // annotated_fingerprint, and the harness's plan key must equal the one
  // the kernel-taking oracle path perf::analyze(k, m) computes.
  const runtime::Harness h(machine::a64fx());
  const auto suite = kernels::all_benchmarks(1.0);
  std::size_t ok = 0;
  for (const auto& bench : suite) {
    for (const auto& spec : compilers::paper_compilers()) {
      const auto out = h.compile_cached(spec, bench);
      if (!out->ok()) continue;
      ++ok;
      const std::string what = bench.name() + " x " + spec.name;
      EXPECT_EQ(out->kernel_fingerprint,
                ir::annotated_fingerprint(*out->kernel))
          << what;
      EXPECT_EQ(h.plan_cached(*out)->fingerprint,
                perf::analyze(*out->kernel, h.machine()).fingerprint)
          << what;
    }
  }
  EXPECT_EQ(ok, 531u);  // 540 cells minus the paper's 3 CE + 6 RE
}

TEST(CarriedFingerprints, PlanKeysClassifyOutcomesLikeContentFingerprints) {
  // The plan key is a walk, the printed content fingerprint a print: two
  // ok outcomes of the paper study must share one exactly when they
  // share the other.  A collision would hand one kernel another's plan;
  // a split would lose plan sharing.  GoldenTable pins only the count.
  const runtime::Harness h(machine::a64fx());
  std::map<std::uint64_t, std::uint64_t> content_of;  // plan key -> content
  std::map<std::uint64_t, std::uint64_t> plan_of;     // content -> plan key
  for (const auto& bench : kernels::all_benchmarks(1.0)) {
    for (const auto& spec : compilers::paper_compilers()) {
      const auto out = h.compile_cached(spec, bench);
      if (!out->ok()) continue;
      const std::uint64_t walked = out->kernel_fingerprint;
      const std::uint64_t printed = ir::content_fingerprint(*out->kernel);
      const std::string what = bench.name() + " x " + spec.name;
      EXPECT_EQ(content_of.emplace(walked, printed).first->second, printed)
          << what;
      EXPECT_EQ(plan_of.emplace(printed, walked).first->second, walked)
          << what;
    }
  }
  EXPECT_EQ(content_of.size(), 356u);
  EXPECT_EQ(plan_of.size(), 356u);
}

}  // namespace
