// Plan/evaluate split: the load-bearing guarantee is that the split is
// EXACT — evaluate(analyze(k, m), cfg, prof) must be bit-identical to
// estimate(k, m, cfg, prof) for every kernel, machine and configuration,
// because the study's tables are asserted byte-identical before/after
// the optimization.  (The row memo that shares plans and evaluations
// within a benchmark row is tested in test_runtime.)

#include <gtest/gtest.h>

#include <vector>

#include "compilers/compiler_model.hpp"
#include "ir/fingerprint.hpp"
#include "kernels/benchmark.hpp"
#include "perf/plan.hpp"

namespace {

using namespace a64fxcc;

// EXPECT_EQ on doubles = exact bit comparison (no tolerance): the two
// paths must run the same arithmetic on the same values in the same
// order, so not a single ULP may differ.
void expect_bitwise(const perf::PerfResult& a, const perf::PerfResult& b,
                    const std::string& what) {
  EXPECT_EQ(a.seconds, b.seconds) << what;
  EXPECT_EQ(a.total_flops, b.total_flops) << what;
  EXPECT_EQ(a.mem_bytes, b.mem_bytes) << what;
  EXPECT_EQ(a.runtime_overhead_s, b.runtime_overhead_s) << what;
  EXPECT_EQ(a.joules, b.joules) << what;
  EXPECT_EQ(a.bottleneck, b.bottleneck) << what;
  ASSERT_EQ(a.detail.size(), b.detail.size()) << what;
  for (std::size_t i = 0; i < a.detail.size(); ++i) {
    const auto& da = a.detail[i];
    const auto& db = b.detail[i];
    EXPECT_EQ(da.loop_var, db.loop_var) << what;
    EXPECT_EQ(da.seconds, db.seconds) << what;
    EXPECT_EQ(da.comp_s, db.comp_s) << what;
    EXPECT_EQ(da.l2_s, db.l2_s) << what;
    EXPECT_EQ(da.mem_s, db.mem_s) << what;
    EXPECT_EQ(da.lat_s, db.lat_s) << what;
    EXPECT_EQ(da.flops, db.flops) << what;
    EXPECT_EQ(da.mem_bytes, db.mem_bytes) << what;
    EXPECT_EQ(da.bottleneck, db.bottleneck) << what;
  }
}

std::vector<perf::ExecConfig> probe_configs(const machine::Machine& m) {
  return {perf::make_config(1, 1, m), perf::make_config(1, 12, m),
          perf::make_config(4, 12, m), perf::make_config(1, 48, m),
          perf::make_config(48, 1, m), perf::make_config(8, 6, m)};
}

// ---- exactness across the kernel suite ------------------------------------

TEST(PlanEvaluate, MatchesEstimateAcrossSourceKernels) {
  const auto m = machine::a64fx();
  const auto suite = kernels::all_benchmarks(0.05);
  ASSERT_FALSE(suite.empty());
  for (const auto& bench : suite) {
    const auto plan = perf::analyze(bench.kernel, m);
    for (const auto& cfg : probe_configs(m)) {
      expect_bitwise(perf::evaluate(plan, cfg),
                     perf::estimate(bench.kernel, m, cfg),
                     bench.name());
    }
  }
}

TEST(PlanEvaluate, MatchesEstimateOnCompiledKernelsAndProfiles) {
  // Compiled kernels exercise the annotation-driven paths (vectorized,
  // unrolled, pipelined, software-prefetched loops) and non-default
  // CodegenProfiles exercise the profile terms of the formula.
  const auto m = machine::a64fx();
  const auto suite = kernels::top500_suite(0.1);
  for (const auto& bench : suite) {
    for (const auto& spec : compilers::paper_compilers()) {
      const auto out = compilers::compile(spec, bench.kernel);
      if (!out.ok()) continue;
      const auto plan = perf::analyze(*out.kernel, m);
      for (const auto& cfg : probe_configs(m)) {
        expect_bitwise(perf::evaluate(plan, cfg, out.profile),
                       perf::estimate(*out.kernel, m, cfg, out.profile),
                       bench.name() + "/" + spec.name);
      }
    }
  }
}

TEST(PlanEvaluate, MatchesEstimateOnOtherMachines) {
  const auto suite = kernels::microkernel_suite(0.05);
  for (const auto& m :
       {machine::xeon_cascadelake(), machine::a64fx_fx700(),
        machine::thunderx2()}) {
    for (const auto& bench : suite) {
      const auto plan = perf::analyze(bench.kernel, m);
      for (const auto& cfg : probe_configs(m)) {
        expect_bitwise(perf::evaluate(plan, cfg),
                       perf::estimate(bench.kernel, m, cfg),
                       m.name + "/" + bench.name());
      }
    }
  }
}

TEST(PlanEvaluate, ScoringModeMatchesDetailScalars) {
  // want_detail=false is the mode the row memo scores placements
  // in: every scalar field must stay bit-identical to the detailed
  // result — the study's placement choices and table numbers ride on
  // them — with the per-statement breakdown simply absent.
  const auto m = machine::a64fx();
  const auto cfgs = probe_configs(m);
  for (const auto& bench : kernels::all_benchmarks(0.05)) {
    for (const auto& spec : compilers::paper_compilers()) {
      const auto out = compilers::compile(spec, bench.kernel);
      if (!out.ok()) continue;
      const auto plan = perf::analyze(*out.kernel, m);
      for (const auto& cfg : cfgs) {
        const auto full = perf::evaluate(plan, cfg, out.profile);
        const auto score =
            perf::evaluate(plan, cfg, out.profile, /*want_detail=*/false);
        const std::string what = bench.name() + "/" + spec.name;
        EXPECT_EQ(score.seconds, full.seconds) << what;
        EXPECT_EQ(score.total_flops, full.total_flops) << what;
        EXPECT_EQ(score.mem_bytes, full.mem_bytes) << what;
        EXPECT_EQ(score.runtime_overhead_s, full.runtime_overhead_s) << what;
        EXPECT_EQ(score.joules, full.joules) << what;
        EXPECT_EQ(score.bottleneck, full.bottleneck) << what;
        EXPECT_TRUE(score.detail.empty()) << what;
      }
    }
  }
}

// ---- fingerprints ----------------------------------------------------------

TEST(PlanFingerprint, DiscriminatesKernelMachineAndScale) {
  const auto m = machine::a64fx();
  const auto suite = kernels::microkernel_suite(0.05);
  const std::uint64_t k1 = ir::annotated_fingerprint(suite[0].kernel);
  const std::uint64_t k2 = ir::annotated_fingerprint(suite[1].kernel);
  EXPECT_EQ(perf::plan_fingerprint(k1, m), perf::plan_fingerprint(k1, m));
  EXPECT_NE(perf::plan_fingerprint(k1, m), perf::plan_fingerprint(k2, m));
  EXPECT_NE(perf::plan_fingerprint(k1, m),
            perf::plan_fingerprint(k1, machine::xeon_cascadelake()));
  // Same structure at a different problem scale = different plan.
  const auto rescaled = kernels::microkernel_suite(0.1);
  EXPECT_NE(perf::plan_fingerprint(k1, m),
            perf::plan_fingerprint(
                ir::annotated_fingerprint(rescaled[0].kernel), m));
  // analyze(k, m) stores the key the row memo looks it up by, and
  // the perf-input domain never collides with the compiler-input one.
  EXPECT_EQ(perf::analyze(suite[0].kernel, m).fingerprint,
            perf::plan_fingerprint(k1, m));
  EXPECT_NE(perf::plan_fingerprint(k1, m), k1);
}

TEST(ConfigFingerprint, DiscriminatesPlacementAndProfile) {
  const auto m = machine::a64fx();
  const auto c1 = perf::make_config(4, 12, m);
  const auto c2 = perf::make_config(48, 1, m);
  EXPECT_EQ(perf::config_fingerprint(c1, {}), perf::config_fingerprint(c1, {}));
  EXPECT_NE(perf::config_fingerprint(c1, {}), perf::config_fingerprint(c2, {}));
  perf::CodegenProfile prof;
  prof.vec_efficiency = 0.7;
  EXPECT_NE(perf::config_fingerprint(c1, {}),
            perf::config_fingerprint(c1, prof));
}

}  // namespace
