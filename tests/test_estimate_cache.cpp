// Estimate memoization at the study level: the explore, measure and
// library-reference lookups of a study go through the harness's
// EstimateCache, and every evaluation either hits or populates it.

#include <gtest/gtest.h>

#include "core/study.hpp"

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

}  // namespace
