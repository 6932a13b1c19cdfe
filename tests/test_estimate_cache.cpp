// Estimate memoization at the study level: tables rendered with the
// EstimateCache enabled must be byte-identical to the legacy
// one-estimate-per-placement path, for any worker count, with and
// without fault injection — the acceptance criterion of the
// plan/evaluate optimization.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/study.hpp"
#include "obs/metrics.hpp"
#include "report/figure2.hpp"

namespace {

using namespace a64fxcc;

// Mixed suite covering the hot paths: MPI rank x thread exploration
// grids + FJtrad library references (top500), one-CMG exploration
// (micro), pure-OpenMP thread sweeps (fiber).
std::vector<kernels::Benchmark> mixed_suite() {
  auto suite = kernels::top500_suite(0.05);
  auto micro = kernels::microkernel_suite(0.05);
  for (std::size_t i = 0; i < 6 && i < micro.size(); ++i)
    suite.push_back(std::move(micro[i]));
  auto fiber = kernels::fiber_suite(0.05);
  for (std::size_t i = 0; i < 3 && i < fiber.size(); ++i)
    suite.push_back(std::move(fiber[i]));
  return suite;
}

report::Table run_table(int jobs, bool memoize, const char* faults,
                        bool batch = true) {
  core::StudyOptions opt;
  opt.scale = 0.05;
  opt.jobs = jobs;
  opt.memoize_estimates = memoize;
  opt.batch_evaluate = batch;
  if (faults != nullptr) {
    const auto plan = runtime::FaultPlan::parse(faults);
    EXPECT_TRUE(plan.has_value());
    opt.faults = *plan;
    opt.max_retries = 2;
  }
  return core::Study(std::move(opt)).run_suite(mixed_suite());
}

TEST(EstimateCacheIdentity, TablesByteIdenticalAcrossCacheAndWorkers) {
  // Rendered bytes (CSV covers every numeric column at full precision,
  // JSON additionally the structure): cache on/off x 1/2/8 workers.
  const auto reference = run_table(1, false, nullptr);
  const std::string ref_csv = report::render_csv(reference);
  const std::string ref_json = report::render_json(reference);
  for (const int jobs : {1, 2, 8}) {
    for (const bool memoize : {false, true}) {
      if (jobs == 1 && !memoize) continue;  // the reference itself
      const auto t = run_table(jobs, memoize, nullptr);
      EXPECT_EQ(report::render_csv(t), ref_csv)
          << "jobs=" << jobs << " memoize=" << memoize;
      EXPECT_EQ(report::render_json(t), ref_json)
          << "jobs=" << jobs << " memoize=" << memoize;
    }
  }
}

TEST(EstimateCacheIdentity, TablesByteIdenticalUnderFaultInjection) {
  // Injected faults + retries exercise the partially-evaluated-cell
  // paths (a retried cell re-runs explore/measure against warm caches).
  const char* kFaults = "compile:0.2,runtime:0.2";
  const auto reference = run_table(1, false, kFaults);
  const std::string ref_csv = report::render_csv(reference);
  for (const int jobs : {1, 2, 8}) {
    for (const bool memoize : {false, true}) {
      if (jobs == 1 && !memoize) continue;
      const auto t = run_table(jobs, memoize, kFaults);
      EXPECT_EQ(report::render_csv(t), ref_csv)
          << "jobs=" << jobs << " memoize=" << memoize;
    }
  }
}

TEST(BatchEvaluateIdentity, TablesByteIdenticalWithBatchingOnOff) {
  // The --no-batch-evaluate A/B: the batched SoA sweep must not move a
  // single output byte relative to the per-config scalar path, at any
  // worker count, cache on or off.
  const auto reference = run_table(1, true, nullptr, /*batch=*/false);
  const std::string ref_csv = report::render_csv(reference);
  const std::string ref_json = report::render_json(reference);
  for (const int jobs : {1, 2, 8}) {
    for (const bool memoize : {false, true}) {
      const auto t = run_table(jobs, memoize, nullptr, /*batch=*/true);
      EXPECT_EQ(report::render_csv(t), ref_csv)
          << "jobs=" << jobs << " memoize=" << memoize;
      EXPECT_EQ(report::render_json(t), ref_json)
          << "jobs=" << jobs << " memoize=" << memoize;
    }
  }
}

TEST(BatchEvaluateIdentity, TablesByteIdenticalUnderFaultInjection) {
  // Retried cells re-run explore against warm caches; the batched path
  // must stay byte-identical through partial evaluation too.
  const char* kFaults = "compile:0.2,runtime:0.2";
  const auto reference = run_table(1, true, kFaults, /*batch=*/false);
  const std::string ref_csv = report::render_csv(reference);
  for (const int jobs : {1, 2, 8}) {
    const auto t = run_table(jobs, true, kFaults, /*batch=*/true);
    EXPECT_EQ(report::render_csv(t), ref_csv) << "jobs=" << jobs;
  }
}

TEST(BatchEvaluateMetrics, SweepCountersAreSchedulingIndependent) {
  // estimate_sweep_calls is a pure function of the suite, never of
  // worker scheduling: every cell sweeps the same placement list
  // against its own plan regardless of evaluation order.  So is the
  // hits+misses total (each sweep probes exactly its config count).
  // Fills themselves carry the documented racing-miss property of
  // get_or_evaluate: two cells sweeping the shared library-reference
  // plan concurrently may both miss a key and both fill it (the first
  // publish wins, both count), so at jobs > 1 fills may only exceed
  // the single-worker minimum.
  struct Counts {
    std::uint64_t calls, fills, probes;
  };
  const auto counters_at = [](int jobs) {
    obs::MetricsSink metrics;
    core::StudyOptions opt;
    opt.scale = 0.05;
    opt.jobs = jobs;
    opt.sink = &metrics;
    core::Study(std::move(opt)).run_suite(mixed_suite());
    return Counts{metrics.counter("estimate_sweep_calls"),
                  metrics.counter("estimate_sweep_batched_fills"),
                  metrics.counter("estimate_cache_hits") +
                      metrics.counter("estimate_cache_misses")};
  };
  const auto ref = counters_at(1);
  EXPECT_GT(ref.calls, 0u);
  EXPECT_GT(ref.fills, 0u);
  for (const int jobs : {2, 8}) {
    const auto c = counters_at(jobs);
    EXPECT_EQ(c.calls, ref.calls) << "jobs=" << jobs;
    EXPECT_EQ(c.probes, ref.probes) << "jobs=" << jobs;
    EXPECT_GE(c.fills, ref.fills) << "jobs=" << jobs;
  }
}

TEST(BatchEvaluateMetrics, ScalarPathEmitsNoSweepTelemetry) {
  obs::MetricsSink metrics;
  core::StudyOptions opt;
  opt.scale = 0.05;
  opt.jobs = 2;
  opt.batch_evaluate = false;
  opt.sink = &metrics;
  core::Study(std::move(opt)).run_suite(kernels::top500_suite(0.05));
  EXPECT_EQ(metrics.counter("estimate_sweep_calls"), 0u);
  EXPECT_EQ(metrics.counter("estimate_sweep_batched_fills"), 0u);
}

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

TEST(EstimateCacheMetrics, DisabledCacheStaysCold) {
  core::StudyOptions opt;
  opt.scale = 0.05;
  opt.jobs = 1;
  opt.memoize_estimates = false;
  core::Study study(std::move(opt));
  const auto t = study.run_suite(kernels::microkernel_suite(0.05));
  ASSERT_FALSE(t.rows.empty());
  const auto& ecache = study.harness().estimate_cache();
  EXPECT_EQ(ecache.plan_count(), 0u);
  EXPECT_EQ(ecache.size(), 0u);
}

}  // namespace
