#include "runtime/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "cache/fingerprint.hpp"
#include "obs/trace.hpp"
#include "stats/stats.hpp"

namespace a64fxcc::runtime {

namespace {

bool is_pow2(int x) { return x > 0 && (x & (x - 1)) == 0; }

/// Generation-time candidate filter: drop placements whose rank x
/// thread product oversubscribes the machine and dedupe against the
/// list built so far, so no post-pass over the list is needed.  Order
/// of arrival is preserved (exploration ties resolve toward earlier
/// entries).
void push_candidate(std::vector<Placement>& out, Placement p,
                    int total_cores) {
  if (p.ranks * p.threads > total_cores) return;
  if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
}

}  // namespace

std::uint64_t cell_stream(const std::string& benchmark,
                          const std::string& compiler) {
  // The shared tier primitives produce the same bits as the private
  // hash_str/hash_mix pair this file used to carry: every historical
  // noise stream (and the journal results derived from them) persists.
  return cache::fnv1a(benchmark) ^ cache::mix64(cache::fnv1a(compiler));
}

Placement Harness::recommended_placement() const {
  return {machine_.domains, machine_.cores_per_domain};
}

Placement Harness::recommended_for(ir::ParallelModel model,
                                   const kernels::BenchmarkTraits& traits) const {
  if (traits.single_core || model == ir::ParallelModel::Serial) return {1, 1};
  if (traits.one_cmg) return {1, machine_.cores_per_domain};
  if (model == ir::ParallelModel::OpenMP) return {1, machine_.total_cores()};
  return recommended_placement();
}

std::vector<Placement> Harness::candidate_placements(
    const kernels::BenchmarkTraits& traits, ir::ParallelModel model) const {
  if (traits.single_core || model == ir::ParallelModel::Serial) return {{1, 1}};
  const int cpd = machine_.cores_per_domain;
  const int total = machine_.total_cores();
  if (!traits.explore_placements) {
    // Weak-scaling / SPEC: the recommended mapping only.
    return {recommended_for(model, traits)};
  }

  std::vector<Placement> out;
  if (traits.one_cmg) {
    for (const int t : {1, 2, 4, 6, 8, 12})
      if (t <= cpd) push_candidate(out, {1, t}, total);
    return out;
  }
  // The recommended mapping first (ties resolve toward it), through the
  // same generation-time filters as the grid: the pow2 constraint used
  // to be re-enforced by a trailing erase_if pass over the full list.
  const Placement rec = recommended_for(model, traits);
  if (!traits.pow2_ranks_only || is_pow2(rec.ranks))
    push_candidate(out, rec, total);
  if (model == ir::ParallelModel::OpenMP) {
    for (const int t : {1, 2, 4, 8, 12, 16, 24, 32, 48})
      if (t <= total) push_candidate(out, {1, t}, total);
    return out;
  }
  const int rank_candidates[] = {1, 2, 4, 8, 12, 16, 32, 48};
  const int thread_candidates[] = {1, 2, 4, 6, 8, 12, 24, 48};
  for (const int r : rank_candidates) {
    if (traits.pow2_ranks_only && !is_pow2(r)) continue;
    for (const int t : thread_candidates) {
      if (r * t < std::min(4, total)) continue;  // skip degenerate configs
      push_candidate(out, {r, t}, total);
    }
  }
  return out;
}

std::shared_ptr<const compilers::CompileOutcome> Harness::compile_cached(
    const compilers::CompilerSpec& spec, const kernels::Benchmark& bench,
    RunMetrics* metrics, obs::Tracer* tracer) const {
  compilers::CompileContext cctx;
  cctx.apply_quirks = apply_quirks_;
  cctx.tracer = tracer;
  auto [outcome, hit] =
      cache_.get_or_compile(spec, bench.kernel, bench.fingerprint(), cctx);
  if (metrics != nullptr) {
    if (hit) {
      ++metrics->compile_cache_hits;
    } else {
      ++metrics->compile_cache_misses;
      // Analysis traffic happened only on the miss path; a compile-cache
      // hit reuses the outcome without re-running the pipeline.
      metrics->analysis_cache_hits += outcome->analysis_cache.hits;
      metrics->analysis_cache_misses += outcome->analysis_cache.misses;
      metrics->analysis_cache_invalidations +=
          outcome->analysis_cache.invalidations;
    }
  }
  return std::move(outcome);
}

std::shared_ptr<const perf::KernelPlan> Harness::plan_cached(
    const compilers::CompileOutcome& out, RunMetrics* metrics) const {
  auto [plan, hit] =
      ecache_.get_or_analyze(*out.kernel, out.kernel_fingerprint, machine_);
  if (metrics != nullptr) {
    if (hit)
      ++metrics->plan_cache_hits;
    else
      ++metrics->plan_cache_misses;
  }
  return std::move(plan);
}

std::shared_ptr<const perf::PerfResult> Harness::evaluate_cached(
    const perf::KernelPlan& plan, const perf::ExecConfig& cfg,
    const perf::CodegenProfile& prof, RunMetrics* metrics) const {
  auto [result, hit] = ecache_.get_or_evaluate(plan, cfg, prof);
  if (metrics != nullptr) {
    if (hit)
      ++metrics->estimate_cache_hits;
    else
      ++metrics->estimate_cache_misses;
  }
  return std::move(result);
}

void Harness::attach_plans(CompiledCell& cell, RunMetrics* metrics) const {
  if (cell.out != nullptr && cell.out->ok())
    cell.plan = plan_cached(*cell.out, metrics);
  if (cell.library_fraction > 0 && cell.ref != nullptr && cell.ref->ok())
    cell.ref_plan = plan_cached(*cell.ref, metrics);
}

double Harness::time_of(const CompiledCell& cell, Placement p,
                        RunMetrics* metrics) const {
  const compilers::CompileOutcome& out = *cell.out;
  if (!out.ok()) return std::numeric_limits<double>::infinity();
  const auto cfg = perf::make_config(p.ranks, p.threads, machine_);
  double t = evaluate_cached(*cell.plan, cfg, out.profile, metrics)->seconds *
             out.time_multiplier;
  if (cell.ref_plan != nullptr) {
    const double t_ref =
        evaluate_cached(*cell.ref_plan, cfg, cell.ref->profile, metrics)
            ->seconds;
    t += t_ref * cell.library_fraction / (1.0 - cell.library_fraction);
  }
  return t;
}

double Harness::model_time(const compilers::CompilerSpec& spec,
                           const kernels::Benchmark& bench, Placement p) const {
  const auto out = compile_cached(spec, bench);
  std::shared_ptr<const compilers::CompileOutcome> ref;
  CompiledCell cell;
  cell.out = out.get();
  cell.library_fraction = bench.traits.library_fraction;
  if (bench.traits.library_fraction > 0) {
    ref = compile_cached(compilers::fjtrad(), bench);
    cell.ref = ref.get();
  }
  attach_plans(cell, nullptr);
  return time_of(cell, p, nullptr);
}

double noise_sample(std::uint64_t seed, std::uint64_t stream, double t,
                    double cv) {
  if (cv <= 0 || !std::isfinite(t)) return t;
  // Counter-based draw (Salmon et al., SC'11) — the documented
  // single-draw-stream contract (see harness.hpp): the key and its two
  // splitmix64 successors depend only on (seed, stream), so a sample
  // depends only on (seed, stream, t, cv).
  const std::uint64_t k = cache::mix64(seed ^ stream);
  const std::uint64_t w1 = cache::mix64(k);
  const std::uint64_t w2 = cache::mix64(k + 0x9e3779b97f4a7c15ULL);
  // Top 53 bits as doubles: u1 in (0, 1] keeps the log finite, u2 in
  // [0, 1).
  constexpr double kTwoToMinus53 = 0x1p-53;
  const double u1 = static_cast<double>((w1 >> 11) + 1) * kTwoToMinus53;
  const double u2 = static_cast<double>(w2 >> 11) * kTwoToMinus53;
  // Box-Muller: one standard normal from the two uniforms.
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  // Lognormal multiplicative noise; sigma chosen so the sample CV ~ cv.
  const double sigma = std::sqrt(std::log1p(cv * cv));
  return t * std::exp(sigma * z);
}

double Harness::noisy(double t, double cv, std::uint64_t stream) const {
  return noise_sample(seed_, stream, t, cv);
}

namespace {

/// Exception-safe wall-clock accumulator for one harness phase: adds
/// the elapsed time to `*acc` (when non-null) even when the phase exits
/// by throwing (an injected crash).  Diagnostics
/// only — the accumulated value never reaches the performance model.
class PhaseClock {
 public:
  explicit PhaseClock(double* acc) : acc_(acc) {}
  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;
  ~PhaseClock() {
    if (acc_ != nullptr)
      *acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0_)
                   .count();
  }

 private:
  double* acc_;
  std::chrono::steady_clock::time_point t0_ =
      std::chrono::steady_clock::now();
};

}  // namespace

MeasuredRun Harness::run(const compilers::CompilerSpec& spec,
                         const kernels::Benchmark& bench,
                         RunMetrics* metrics) const {
  return run(spec, bench, RunContext{}, metrics);
}

MeasuredRun Harness::run(const compilers::CompilerSpec& spec,
                         const kernels::Benchmark& bench,
                         const RunContext& ctx, RunMetrics* metrics) const {
  MeasuredRun m;
  m.benchmark = bench.name();
  m.compiler = spec.name;

  // ---- compile phase (plus the reference compile, below) ----
  std::shared_ptr<const compilers::CompileOutcome> out;
  std::shared_ptr<const compilers::CompileOutcome> ref;
  const compilers::CompileOutcome* refp = nullptr;
  {
    const auto span =
        obs::scoped(ctx.tracer, "compile", bench.name(), spec.name);
    const PhaseClock clock(metrics != nullptr ? &metrics->compile_seconds
                                              : nullptr);
    out = compile_cached(spec, bench, metrics, ctx.tracer);
    m.decisions = compilers::decision_summary(out->decisions);
    m.status = cell_status(out->status);
    if (!out->ok()) {
      m.diagnostic = out->diagnostic;
      return m;
    }
    // Library-heavy benchmarks need the FJtrad reference for the SSL2
    // part.
    if (bench.traits.library_fraction > 0) {
      ref = compile_cached(compilers::fjtrad(), bench, metrics, ctx.tracer);
      refp = ref.get();
    }
  }

  // ---- plan phase: placement-invariant perf analysis, once per cell ----
  CompiledCell cell;
  cell.out = out.get();
  cell.ref = refp;
  cell.library_fraction = bench.traits.library_fraction;
  {
    const auto span = obs::scoped(ctx.tracer, "plan", bench.name(), spec.name);
    attach_plans(cell, metrics);
  }

  const std::uint64_t base = cell_stream(bench.name(), spec.name);

  // ---- exploration phase: 3 trials per candidate placement ----
  const auto placements =
      candidate_placements(bench.traits, bench.kernel.meta().parallel);
  if (placements.empty()) {
    // A topology that admits no candidate at all (degenerate machines:
    // zero cores per domain under a one-CMG constraint) used to fall
    // through to placements.front() below — UB.  Classify it instead.
    throw CellError(CellStatus::RuntimeError,
                    "no feasible placement: machine topology rejects every "
                    "rank x thread candidate");
  }
  Placement best_p = placements.front();
  // Noise-free model time of the winning placement, carried out of the
  // exploration loop so the performance phase reuses it instead of
  // re-deriving it (time_of is pure, so reuse is bit-identical).
  double t_best = std::numeric_limits<double>::infinity();
  {
    const auto span =
        obs::scoped(ctx.tracer, "explore", bench.name(), spec.name);
    const PhaseClock clock(metrics != nullptr ? &metrics->explore_seconds
                                              : nullptr);
    double best_trial = std::numeric_limits<double>::infinity();
    for (std::size_t pi = 0; pi < placements.size(); ++pi) {
      const double t = time_of(cell, placements[pi], metrics);
      for (int trial = 0; trial < 3; ++trial) {
        const double sample =
            noisy(t, bench.traits.noise_cv, base ^ (pi * 8191 + trial));
        if (sample < best_trial) {
          best_trial = sample;
          best_p = placements[pi];
          t_best = t;
        }
      }
    }
  }
  m.placement = best_p;

  // ---- performance phase: 10 runs at the chosen placement ----
  const double t_model = t_best;
  std::vector<double> samples;
  samples.reserve(10);
  {
    const auto span =
        obs::scoped(ctx.tracer, "measure", bench.name(), spec.name);
    const PhaseClock clock(metrics != nullptr ? &metrics->measure_seconds
                                              : nullptr);
    for (int r = 0; r < 10; ++r) {
      // An injected crash strikes mid-phase, so the recovery path sees a
      // partially evaluated cell, the worst case for isolation.  Here it
      // is classified; a distrib worker dies before evaluating instead.
      if (r == 4 && ctx.crash) {
        char buf[80];
        std::snprintf(buf, sizeof buf,
                      "injected crash fault at performance run %d (attempt %d)",
                      r + 1, ctx.attempt);
        throw CellError(CellStatus::Crashed, buf);
      }
      samples.push_back(
          noisy(t_model, bench.traits.noise_cv, base ^ (0xABCD0000ULL + r)));
    }
  }
  m.best_seconds = stats::min(samples);
  m.median_seconds = stats::median(samples);
  m.cv = stats::cv(samples);

  // Characterize the best run via the noise-free model.  The explore
  // loop already evaluated this (plan, placement) pair, so this is a
  // guaranteed cache hit.
  const auto cfg = perf::make_config(best_p.ranks, best_p.threads, machine_);
  std::shared_ptr<const perf::PerfResult> pr;
  {
    const auto span =
        obs::scoped(ctx.tracer, "evaluate", bench.name(), spec.name);
    pr = evaluate_cached(*cell.plan, cfg, out->profile, metrics);
  }
  m.bottleneck = std::string(pr->bottleneck);
  m.gflops = pr->total_flops / m.best_seconds / 1e9;
  m.mem_gbs = pr->mem_bytes / m.best_seconds / 1e9;
  return m;
}

}  // namespace a64fxcc::runtime
