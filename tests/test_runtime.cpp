// Tests for the measurement harness: placement candidates respect the
// benchmark traits, exploration picks sensible placements, noise is
// deterministic per seed, errors propagate, the library-fraction model
// caps compiler influence, and the row memo shares a row's work and
// counts every lookup.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <vector>

#include "cache/service.hpp"
#include "ir/fingerprint.hpp"
#include "kernels/archetypes.hpp"
#include "perf/plan.hpp"
#include "runtime/harness.hpp"

namespace {

using namespace a64fxcc;
using kernels::ArchParams;
using kernels::Benchmark;
using runtime::Harness;
using runtime::Placement;

Harness make_harness(std::uint64_t seed = 42) {
  return Harness(machine::a64fx(), seed);
}

Benchmark triad_bench(std::int64_t n = 1 << 22) {
  ArchParams p{.name = "t",
               .language = ir::Language::C,
               .parallel = ir::ParallelModel::OpenMP,
               .suite = "test",
               .n = n};
  return {kernels::stream_triad(p), kernels::BenchmarkTraits{}};
}

TEST(Placements, SingleCoreGetsOnlyOne) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({.single_core = true});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], (Placement{1, 1}));
}

TEST(Placements, WeakScalingGetsRecommendedOnly) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({.explore_placements = false});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], (Placement{4, 12}));
}

TEST(Placements, OneCmgLimitedToTwelveThreads) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({.one_cmg = true});
  for (const auto& p : c) {
    EXPECT_EQ(p.ranks, 1);
    EXPECT_LE(p.threads, 12);
  }
  EXPECT_GE(c.size(), 4u);
}

TEST(Placements, Pow2RanksRespected) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({.pow2_ranks_only = true});
  for (const auto& p : c) EXPECT_EQ(p.ranks & (p.ranks - 1), 0) << p.ranks;
}

TEST(Placements, DefaultSetIncludesRecommendedFirstAndFits) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({});
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(c[0], (Placement{4, 12}));
  for (const auto& p : c) EXPECT_LE(p.ranks * p.threads, 48);
}

TEST(Placements, GeneratedListsAreDedupedAndFeasibleEverywhere) {
  // Infeasible (ranks x threads > cores) and duplicate combos are now
  // skipped at generation time rather than filtered afterwards; the
  // recommended placement stays first wherever it is feasible.
  using kernels::BenchmarkTraits;
  const BenchmarkTraits traits[] = {{},
                                    {.pow2_ranks_only = true},
                                    {.one_cmg = true},
                                    {.single_core = true},
                                    {.explore_placements = false}};
  const ir::ParallelModel models[] = {ir::ParallelModel::MpiOpenMP,
                                      ir::ParallelModel::OpenMP,
                                      ir::ParallelModel::Serial};
  for (const auto& m :
       {machine::a64fx(), machine::a64fx_fx700(), machine::thunderx2(),
        machine::xeon_cascadelake()}) {
    const Harness h(m, 42);
    for (const auto& tr : traits) {
      for (const auto model : models) {
        const auto c = h.candidate_placements(tr, model);
        ASSERT_FALSE(c.empty()) << m.name;
        for (const auto& p : c) {
          EXPECT_GE(p.ranks, 1) << m.name;
          EXPECT_GE(p.threads, 1) << m.name;
          EXPECT_LE(p.ranks * p.threads, m.total_cores()) << m.name;
        }
        for (std::size_t i = 0; i < c.size(); ++i)
          for (std::size_t j = i + 1; j < c.size(); ++j)
            EXPECT_FALSE(c[i] == c[j])
                << m.name << " dup " << c[i].ranks << "x" << c[i].threads;
        // one_cmg sweeps threads ascending (recommended = 1 x cpd comes
        // last); every other explored list leads with the recommendation.
        const auto rec = h.recommended_for(model, tr);
        if (!tr.one_cmg && rec.ranks * rec.threads <= m.total_cores() &&
            (!tr.pow2_ranks_only || (rec.ranks & (rec.ranks - 1)) == 0)) {
          EXPECT_EQ(c[0], rec) << m.name;
        }
      }
    }
  }
}

TEST(Harness, RunProducesOrderedStats) {
  const auto h = make_harness();
  const auto b = triad_bench();
  const auto m = h.run(compilers::fjtrad(), b);
  ASSERT_TRUE(m.valid());
  EXPECT_GT(m.best_seconds, 0);
  EXPECT_LE(m.best_seconds, m.median_seconds);
  EXPECT_GE(m.cv, 0);
  EXPECT_FALSE(m.bottleneck.empty());
}

TEST(Harness, DeterministicPerSeed) {
  const auto b = triad_bench();
  const auto m1 = make_harness(7).run(compilers::gnu(), b);
  const auto m2 = make_harness(7).run(compilers::gnu(), b);
  EXPECT_DOUBLE_EQ(m1.best_seconds, m2.best_seconds);
  const auto m3 = make_harness(8).run(compilers::gnu(), b);
  EXPECT_NE(m1.best_seconds, m3.best_seconds);
}

TEST(Harness, QuirkErrorsPropagate) {
  // k22 under FJclang is a declared compile error.
  for (const auto& b : kernels::microkernel_suite(0.01)) {
    if (b.name() != "k22") continue;
    const auto m = make_harness().run(compilers::fjclang(), b);
    EXPECT_EQ(m.status, runtime::CellStatus::CompileError);
    EXPECT_FALSE(m.valid());
    EXPECT_TRUE(std::isinf(m.best_seconds));
  }
}

TEST(Harness, ExplorationBeatsOrMatchesRecommended) {
  // The chosen placement can never be slower (in model time) than the
  // model-appropriate recommended placement by more than noise.
  const auto h = make_harness();
  const auto b = triad_bench(1 << 24);
  const auto m = h.run(compilers::llvm12(), b);
  const auto rec_p = h.recommended_for(b.kernel.meta().parallel, b.traits);
  const double rec = h.model_time(compilers::llvm12(), b, rec_p);
  EXPECT_LE(m.best_seconds, rec * 1.10);
}

TEST(Harness, RecommendedPlacementPerModel) {
  const auto h = make_harness();
  EXPECT_EQ(h.recommended_for(ir::ParallelModel::MpiOpenMP, {}),
            (Placement{4, 12}));
  EXPECT_EQ(h.recommended_for(ir::ParallelModel::OpenMP, {}),
            (Placement{1, 48}));
  EXPECT_EQ(h.recommended_for(ir::ParallelModel::Serial, {}), (Placement{1, 1}));
  EXPECT_EQ(h.recommended_for(ir::ParallelModel::OpenMP, {.one_cmg = true}),
            (Placement{1, 12}));
}

TEST(Placements, OpenMpKernelsOnlyVaryThreads) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({}, ir::ParallelModel::OpenMP);
  for (const auto& p : c) EXPECT_EQ(p.ranks, 1);
  EXPECT_GE(c.size(), 5u);
}

TEST(Harness, LibraryFractionCapsCompilerInfluence) {
  // With 93% of time in SSL2, even a compiler that doubles user-code
  // speed moves total time by only a few percent (the HPL observation).
  auto b = triad_bench(1 << 22);
  b.traits.library_fraction = 0.93;
  const auto h = make_harness();
  const double fj = h.model_time(compilers::fjtrad(), b, {4, 12});
  const double lv = h.model_time(compilers::llvm12(), b, {4, 12});
  const double gain = fj / lv;
  EXPECT_LT(gain, 1.15);
  EXPECT_GT(gain, 0.9);
}

TEST(Harness, NoiseCvRoughlyMatchesTrait) {
  auto b = triad_bench();
  b.traits.noise_cv = 0.22;  // BabelStream-class
  const auto m = make_harness().run(compilers::fjtrad(), b);
  // 10 samples of a CV=0.22 lognormal: sample CV within a loose band.
  EXPECT_GT(m.cv, 0.05);
  EXPECT_LT(m.cv, 0.5);
}

TEST(Harness, BestOfTenBelowModelTime) {
  // Reporting the fastest of 10 noisy runs biases below the model mean.
  auto b = triad_bench();
  b.traits.noise_cv = 0.1;
  const auto h = make_harness();
  const auto m = h.run(compilers::fjtrad(), b);
  const double t_model = h.model_time(compilers::fjtrad(), b, m.placement);
  EXPECT_LT(m.best_seconds, t_model * 1.02);
}

TEST(NoiseSample, SeedingContractIsPureAndStreamKeyed) {
  // The documented seeding contract (harness.hpp): each (seed, stream)
  // pair is an independent single-draw stream — a counter-based hash of
  // the pair, NOT a sequence from a shared generator.  A sample is a
  // pure function of (seed, stream, t, cv):
  const double a = runtime::noise_sample(42, 7, 1.0, 0.1);
  EXPECT_EQ(a, runtime::noise_sample(42, 7, 1.0, 0.1));  // bitwise stable
  // Equal streams give bit-equal samples by design (this is why the
  // harness derives a distinct substream per trial)...
  EXPECT_EQ(runtime::noise_sample(42, 7, 2.0, 0.1),
            2.0 * (a / 1.0));  // same multiplicative factor, scaled t
  // ...and distinct streams or seeds decorrelate via the hash mixing.
  EXPECT_NE(a, runtime::noise_sample(42, 8, 1.0, 0.1));
  EXPECT_NE(a, runtime::noise_sample(43, 7, 1.0, 0.1));
  // Draw-order independence: interleaving other draws cannot perturb a
  // stream (no shared generator state to advance).
  (void)runtime::noise_sample(42, 1000, 1.0, 0.1);
  EXPECT_EQ(a, runtime::noise_sample(42, 7, 1.0, 0.1));
  // cv <= 0 and non-finite t pass through untouched.
  EXPECT_EQ(runtime::noise_sample(42, 7, 3.5, 0.0), 3.5);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(runtime::noise_sample(42, 7, inf, 0.1), inf);
}

TEST(NoiseSample, HarnessSamplesDeriveFromCellSubstreams) {
  // The measure phase's r-th sample uses substream base ^ (0xABCD0000 +
  // r) of the cell stream — assert run() actually follows the contract
  // (the samples' min must be reproducible from noise_sample alone).
  auto b = triad_bench();
  b.traits.noise_cv = 0.1;
  const auto h = make_harness();
  const auto m = h.run(compilers::fjtrad(), b);
  const double t_model = h.model_time(compilers::fjtrad(), b, m.placement);
  const std::uint64_t base = runtime::cell_stream(b.name(), "FJtrad");
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 10; ++r) {
    best = std::min(best, runtime::noise_sample(h.seed(),
                                                base ^ (0xABCD0000ULL + r),
                                                t_model, b.traits.noise_cv));
  }
  EXPECT_EQ(m.best_seconds, best);
}

TEST(NoiseSample, ExploreRunsThreeTrialsOnEveryCandidate) {
  // The exploration phase draws trial k of candidate i from substream
  // base ^ (i * 8191 + k) and keeps the first strict minimum: replaying
  // all 3 trials of every candidate through noise_sample must pick the
  // placement run() chose.  Within one CMG the bandwidth-bound thread
  // counts tie in model time, so BabelStream-class noise decides between
  // them, and several seeds spread the winners over the candidate list.
  auto b = triad_bench();
  b.traits.one_cmg = true;
  b.traits.noise_cv = 0.22;
  const std::uint64_t base = runtime::cell_stream(b.name(), "FJtrad");
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const auto h = make_harness(seed);
    const auto m = h.run(compilers::fjtrad(), b);
    const auto cands =
        h.candidate_placements(b.traits, ir::ParallelModel::OpenMP);
    ASSERT_GT(cands.size(), 1u);
    double best = std::numeric_limits<double>::infinity();
    Placement chosen = cands.front();
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const double t = h.model_time(compilers::fjtrad(), b, cands[i]);
      for (std::uint64_t k = 0; k < 3; ++k) {
        const double s = runtime::noise_sample(seed, base ^ (i * 8191 + k), t,
                                               b.traits.noise_cv);
        if (s < best) {
          best = s;
          chosen = cands[i];
        }
      }
    }
    EXPECT_EQ(m.placement, chosen) << "seed " << seed;
  }
}

TEST(NoiseSample, LognormalMomentsMatchTheTraitCv) {
  // Statistical check of the generator over consecutive stream ids (the
  // most structured keys a counter-based draw can get).  For
  // x = noise_sample(...) / t, log x must be N(0, log1p(cv^2)) and x
  // must have coefficient of variation cv.
  // Sums of x run over x - 1, so the variance of the tightest cv does
  // not cancel away.
  constexpr int kStreams = 200000;
  for (const double cv : {0.00114, 0.02, 0.1, 0.22}) {
    double sum_d = 0, sum_d2 = 0, sum_l = 0, sum_l2 = 0;
    for (int i = 0; i < kStreams; ++i) {
      const double x =
          runtime::noise_sample(42, static_cast<std::uint64_t>(i), 1.0, cv);
      const double d = x - 1.0;
      const double l = std::log(x);
      sum_d += d;
      sum_d2 += d * d;
      sum_l += l;
      sum_l2 += l * l;
    }
    const double n = kStreams;
    const double mean_d = sum_d / n;
    const double var_x = (sum_d2 - n * mean_d * mean_d) / (n - 1);
    const double mean_l = sum_l / n;
    const double var_l = (sum_l2 - n * mean_l * mean_l) / (n - 1);
    const double sigma2 = std::log1p(cv * cv);
    EXPECT_NEAR(std::sqrt(var_x) / (1.0 + mean_d), cv, 0.02 * cv)
        << "cv " << cv;
    EXPECT_LT(std::abs(mean_l), 4.0 * std::sqrt(sigma2 / n)) << "cv " << cv;
    EXPECT_NEAR(var_l, sigma2, 0.02 * sigma2) << "cv " << cv;
  }
}

TEST(Harness, DegenerateMachineRaisesClassifiedCellError) {
  // A machine whose topology admits no rank x thread candidate must
  // fail the cell as a classified RuntimeError, not index an empty
  // placement vector (UB before this guard existed).
  machine::Machine m = machine::a64fx();
  m.cores_per_domain = 0;
  const Harness h(m, 42);
  auto b = triad_bench();
  b.traits.one_cmg = true;
  EXPECT_TRUE(
      h.candidate_placements(b.traits, ir::ParallelModel::OpenMP).empty());
  try {
    (void)h.run(compilers::fjtrad(), b);
    FAIL() << "expected CellError";
  } catch (const runtime::CellError& e) {
    EXPECT_EQ(e.status(), runtime::CellStatus::RuntimeError);
    EXPECT_NE(std::string(e.what()).find("no feasible placement"),
              std::string::npos)
        << e.what();
  }
}

/// Every field of two runs, bit for bit.
void expect_same_run(const runtime::MeasuredRun& got,
                     const runtime::MeasuredRun& want, const char* what) {
  EXPECT_EQ(got.benchmark, want.benchmark) << what;
  EXPECT_EQ(got.compiler, want.compiler) << what;
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_EQ(got.diagnostic, want.diagnostic) << what;
  EXPECT_EQ(got.best_seconds, want.best_seconds) << what;
  EXPECT_EQ(got.median_seconds, want.median_seconds) << what;
  EXPECT_EQ(got.cv, want.cv) << what;
  EXPECT_EQ(got.placement, want.placement) << what;
  EXPECT_EQ(got.bottleneck, want.bottleneck) << what;
  EXPECT_EQ(got.gflops, want.gflops) << what;
  EXPECT_EQ(got.mem_gbs, want.mem_gbs) << what;
  EXPECT_EQ(got.decisions, want.decisions) << what;
}

TEST(CellModel, KeyCoversEveryTraitTheModelReads) {
  // One harness keeps the model of every trait setting it has run, so a
  // trait left out of the "cells" key would hand a later setting an
  // earlier setting's candidates and times.  Each flip must match a
  // fresh harness field for field, and must change the fresh result
  // (else the flip could not catch a stale model): this CSR sweep runs
  // fastest at 48x1, a rank count the pow2 constraint removes.  The
  // noise CV is not keyed: run() reads it when it draws.
  const auto make = [] {
    ArchParams p{.name = "k",
                 .language = ir::Language::C,
                 .parallel = ir::ParallelModel::MpiOpenMP,
                 .suite = "test",
                 .n = 1 << 20};
    return Benchmark{kernels::spmv_csr(p), kernels::BenchmarkTraits{}};
  };
  const Benchmark base = make();
  struct Flip {
    const char* trait;
    void (*apply)(kernels::BenchmarkTraits&);
  };
  const Flip flips[] = {
      {"explore_placements",
       [](kernels::BenchmarkTraits& t) { t.explore_placements = false; }},
      {"pow2_ranks_only",
       [](kernels::BenchmarkTraits& t) { t.pow2_ranks_only = true; }},
      {"single_core",
       [](kernels::BenchmarkTraits& t) { t.single_core = true; }},
      {"one_cmg", [](kernels::BenchmarkTraits& t) { t.one_cmg = true; }},
      {"library_fraction",
       [](kernels::BenchmarkTraits& t) { t.library_fraction = 0.5; }},
      {"noise_cv", [](kernels::BenchmarkTraits& t) { t.noise_cv = 0.1; }},
  };
  const auto spec = compilers::llvm12();
  const auto fresh_run = [&spec](const Benchmark& b) {
    return Harness(machine::a64fx(), 42).run(spec, b);
  };
  const auto base_run = fresh_run(base);
  cache::Service tier;
  for (cache::Service* svc : {static_cast<cache::Service*>(nullptr), &tier}) {
    const Harness h(machine::a64fx(), 42, true, svc);
    expect_same_run(h.run(spec, base), base_run, "base");
    for (const Flip& f : flips) {
      Benchmark b = make();
      f.apply(b.traits);
      const auto want = fresh_run(b);
      EXPECT_TRUE(want.best_seconds != base_run.best_seconds ||
                  want.placement != base_run.placement)
          << f.trait << " does not change the run";
      expect_same_run(h.run(spec, b), want, f.trait);
    }
  }
}

// ---- row memo ---------------------------------------------------------------

/// The six lookup counters of `m`, in RunMetrics order.
enum Lookup {
  kCompileHit, kCompileMiss, kPlanHit, kPlanMiss, kEvalHit, kEvalMiss
};
std::array<int, 6> lookups(const runtime::RunMetrics& m) {
  return {m.compile_cache_hits,  m.compile_cache_misses, m.plan_cache_hits,
          m.plan_cache_misses,   m.estimate_cache_hits,
          m.estimate_cache_misses};
}

/// Checks that the lookups since its previous call moved counter
/// `which` of a RunMetrics by one, and no other.
class ExpectMoved {
 public:
  explicit ExpectMoved(const runtime::RunMetrics& rm)
      : rm_(rm), last_(lookups(rm)) {}
  void operator()(Lookup which) {
    ++last_[which];
    EXPECT_EQ(lookups(rm_), last_) << "counter " << which;
    last_ = lookups(rm_);
  }

 private:
  const runtime::RunMetrics& rm_;
  std::array<int, 6> last_;
};

// The CompileCache and EstimateCache suites check the row memo's
// compile, and its plan and evaluate lookups, in turn.

TEST(CompileCache, MemoizesPureCompiles) {
  const auto suite = kernels::polybench_suite(0.02);
  const auto spec = compilers::llvm12();
  runtime::RowMemo memo;
  runtime::RunMetrics rm;
  ExpectMoved moved(rm);
  // A repeat spec hits and shares its outcome, decisions included.  Only
  // the miss runs the pipeline, so only it adds analysis traffic.
  const compilers::CompileOutcome& a = memo.compile(spec, suite[0], true, &rm);
  moved(kCompileMiss);
  ASSERT_TRUE(a.ok());
  const int analyses = rm.analysis_cache_hits + rm.analysis_cache_misses;
  EXPECT_GT(analyses, 0);
  EXPECT_EQ(&memo.compile(spec, suite[0], true, &rm), &a);
  moved(kCompileHit);
  EXPECT_EQ(rm.analysis_cache_hits + rm.analysis_cache_misses, analyses);
  EXPECT_FALSE(a.decisions.empty());
  EXPECT_EQ(compilers::decision_summary(a.decisions),
            compilers::decision_summary(
                compilers::compile(spec, suite[0].kernel).decisions));
  EXPECT_EQ(a.kernel_fingerprint, ir::annotated_fingerprint(*a.kernel));
}

TEST(CompileCache, DistinguishesSpecKernelScaleAndQuirks) {
  const auto small = kernels::polybench_suite(0.02);
  const auto large = kernels::polybench_suite(0.04);
  const auto spec = compilers::llvm12();
  runtime::RowMemo memo;
  runtime::RunMetrics rm;
  ExpectMoved moved(rm);
  const compilers::CompileOutcome& a = memo.compile(spec, small[0], true, &rm);
  moved(kCompileMiss);
  // Another spec, kernel, kernel scale or quirk mode misses.
  EXPECT_NE(&memo.compile(compilers::gnu(), small[0], true, &rm), &a);
  moved(kCompileMiss);
  EXPECT_NE(&memo.compile(spec, small[1], true, &rm), &a);
  moved(kCompileMiss);
  EXPECT_NE(&memo.compile(spec, large[0], true, &rm), &a);
  moved(kCompileMiss);
  EXPECT_NE(&memo.compile(spec, small[0], false, &rm), &a);
  moved(kCompileMiss);
  EXPECT_EQ(&memo.compile(spec, small[0], true, &rm), &a);
  moved(kCompileHit);
  EXPECT_EQ(rm.compile_cache_misses, 5);
}

TEST(EstimateCache, MemoizesPlansWithPointerIdentity) {
  const auto m = machine::a64fx();
  const auto suite = kernels::polybench_suite(0.02);
  const auto spec = compilers::llvm12();
  runtime::RowMemo memo;
  const compilers::CompileOutcome& a = memo.compile(spec, suite[0], true);
  const compilers::CompileOutcome& b = memo.compile(spec, suite[1], true);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  runtime::RunMetrics rm;
  ExpectMoved moved(rm);
  const perf::KernelPlan& plan = memo.plan(a, m, &rm);
  moved(kPlanMiss);
  EXPECT_EQ(plan.fingerprint, perf::analyze(*a.kernel, m).fingerprint);
  EXPECT_EQ(&memo.plan(a, m, &rm), &plan);  // shared, not recomputed
  moved(kPlanHit);
  // Equal annotated fingerprints share one plan: the key is the
  // fingerprint the outcome carries, not the outcome.
  runtime::RowMemo elsewhere;
  const compilers::CompileOutcome& twin =
      elsewhere.compile(spec, suite[0], true);
  ASSERT_NE(&twin, &a);
  EXPECT_EQ(&memo.plan(twin, m, &rm), &plan);
  moved(kPlanHit);
  EXPECT_NE(&memo.plan(b, m, &rm), &plan);
  moved(kPlanMiss);
}

TEST(EstimateCache, MemoizesEvaluationsPerConfig) {
  const auto m = machine::a64fx();
  const auto suite = kernels::polybench_suite(0.02);
  const auto spec = compilers::llvm12();
  runtime::RowMemo memo;
  const compilers::CompileOutcome& a = memo.compile(spec, suite[0], true);
  const compilers::CompileOutcome& b = memo.compile(spec, suite[1], true);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const perf::KernelPlan& plan = memo.plan(a, m);
  const perf::KernelPlan& other_plan = memo.plan(b, m);
  runtime::RunMetrics rm;
  ExpectMoved moved(rm);
  // One evaluation per (plan, config, profile), bitwise equal to the
  // detail-less perf::evaluate.
  const auto c1 = perf::make_config(4, 12, m);
  const auto c2 = perf::make_config(48, 1, m);
  perf::CodegenProfile other = a.profile;
  other.vec_efficiency += 0.25;
  const perf::PerfResult& e = memo.evaluate(plan, c1, a.profile, &rm);
  moved(kEvalMiss);
  EXPECT_EQ(&memo.evaluate(plan, c1, a.profile, &rm), &e);
  moved(kEvalHit);
  EXPECT_NE(&memo.evaluate(plan, c2, a.profile, &rm), &e);
  moved(kEvalMiss);
  EXPECT_NE(&memo.evaluate(plan, c1, other, &rm), &e);
  moved(kEvalMiss);
  EXPECT_NE(&memo.evaluate(other_plan, c1, a.profile, &rm), &e);
  moved(kEvalMiss);
  const perf::PerfResult want = perf::evaluate(plan, c1, a.profile, false);
  EXPECT_EQ(e.seconds, want.seconds);
  EXPECT_EQ(e.total_flops, want.total_flops);
  EXPECT_EQ(e.mem_bytes, want.mem_bytes);
  EXPECT_EQ(e.runtime_overhead_s, want.runtime_overhead_s);
  EXPECT_EQ(e.joules, want.joules);
  EXPECT_EQ(e.bottleneck, want.bottleneck);
  EXPECT_TRUE(e.detail.empty());
}

TEST(CarriedFingerprints, OutcomesAndPlanKeysMatchFreshFingerprints) {
  // The study path prints no kernel to key a lookup: compiles key by
  // Benchmark::fingerprint, plans by the fingerprint the row memo stored
  // on the outcome.  Each carried value must equal a fresh
  // annotated_fingerprint, and the memo's plan key must equal the one
  // the kernel-taking oracle path perf::analyze(k, m) computes.
  const auto m = machine::a64fx();
  std::size_t ok = 0;
  for (const auto& bench : kernels::all_benchmarks(1.0)) {
    runtime::RowMemo memo;
    for (const auto& spec : compilers::paper_compilers()) {
      const compilers::CompileOutcome& out = memo.compile(spec, bench, true);
      if (!out.ok()) continue;
      ++ok;
      const std::string what = bench.name() + " x " + spec.name;
      EXPECT_EQ(out.kernel_fingerprint, ir::annotated_fingerprint(*out.kernel))
          << what;
      EXPECT_EQ(memo.plan(out, m).fingerprint,
                perf::analyze(*out.kernel, m).fingerprint)
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
  std::map<std::uint64_t, std::uint64_t> content_of;  // plan key -> content
  std::map<std::uint64_t, std::uint64_t> plan_of;     // content -> plan key
  for (const auto& bench : kernels::all_benchmarks(1.0)) {
    runtime::RowMemo memo;
    for (const auto& spec : compilers::paper_compilers()) {
      const compilers::CompileOutcome& out = memo.compile(spec, bench, true);
      if (!out.ok()) continue;
      const std::uint64_t walked = out.kernel_fingerprint;
      const std::uint64_t printed = ir::content_fingerprint(*out.kernel);
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
