#include "runtime/harness.hpp"

#include <algorithm>
#include <array>
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

Harness::Harness(machine::Machine m, std::uint64_t seed, bool apply_quirks,
                 cache::Service* cache_service)
    : machine_(std::move(m)),
      seed_(seed),
      apply_quirks_(apply_quirks),
      owned_cells_(cache_service != nullptr
                       ? nullptr
                       : std::make_unique<CellMap>("cells")),
      cells_(cache_service != nullptr
                 ? &cache_service->get_or_create<std::uint64_t, CellModel>(
                       "cells")
                 : owned_cells_.get()),
      // A kernel-free plan key: every Machine field the estimator reads
      // (topology included, which is all candidate_placements reads).
      machine_fp_(perf::plan_fingerprint(0, machine_)) {}

Placement Harness::recommended_placement() const {
  return {machine_.domains, machine_.cores_per_domain};
}

Placement recommended_for(const machine::Machine& m, ir::ParallelModel model,
                          const kernels::BenchmarkTraits& traits) {
  if (traits.single_core || model == ir::ParallelModel::Serial) return {1, 1};
  if (traits.one_cmg) return {1, m.cores_per_domain};
  if (model == ir::ParallelModel::OpenMP) return {1, m.total_cores()};
  return {m.domains, m.cores_per_domain};
}

Placement Harness::recommended_for(ir::ParallelModel model,
                                   const kernels::BenchmarkTraits& traits) const {
  return runtime::recommended_for(machine_, model, traits);
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

Harness::CompiledCell Harness::compile_cell(const compilers::CompilerSpec& spec,
                                            const kernels::Benchmark& bench,
                                            RowMemo& memo, RunMetrics* metrics,
                                            obs::Tracer* tracer) const {
  CompiledCell cell;
  cell.out = &memo.compile(spec, bench, apply_quirks_, metrics, tracer);
  if (!cell.out->ok()) return cell;
  // Library-heavy benchmarks need the FJtrad reference for the SSL2
  // part.
  cell.library_fraction = bench.traits.library_fraction;
  if (cell.library_fraction > 0)
    cell.ref = &memo.compile(compilers::fjtrad(), bench, apply_quirks_,
                             metrics, tracer);
  const auto span = obs::scoped(tracer, "plan", bench.name(), spec.name);
  cell.plan = &memo.plan(*cell.out, machine_, metrics);
  if (cell.ref != nullptr && cell.ref->ok())
    cell.ref_plan = &memo.plan(*cell.ref, machine_, metrics);
  return cell;
}

CellModel::Candidate Harness::candidate_at(const CompiledCell& cell,
                                          Placement p, RowMemo& memo,
                                          RunMetrics* metrics) const {
  const compilers::CompileOutcome& out = *cell.out;
  const auto cfg = perf::make_config(p.ranks, p.threads, machine_);
  const perf::PerfResult& pr =
      memo.evaluate(*cell.plan, cfg, out.profile, metrics);
  double t = pr.seconds * out.time_multiplier;
  if (cell.ref_plan != nullptr) {
    const double t_ref =
        memo.evaluate(*cell.ref_plan, cfg, cell.ref->profile, metrics).seconds;
    t += t_ref * cell.library_fraction / (1.0 - cell.library_fraction);
  }
  return {p, t, pr.total_flops, pr.mem_bytes, pr.bottleneck};
}

double Harness::model_time(const compilers::CompilerSpec& spec,
                           const kernels::Benchmark& bench, Placement p) const {
  RowMemo memo;
  const CompiledCell cell = compile_cell(spec, bench, memo, nullptr, nullptr);
  if (!cell.out->ok()) return std::numeric_limits<double>::infinity();
  return candidate_at(cell, p, memo, nullptr).seconds;
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

std::uint64_t Harness::cell_key(const compilers::CompilerSpec& spec,
                                const kernels::Benchmark& bench) const {
  // Journal::cell_key's inputs without the seed, plus the machine and
  // every trait build_model reads: traits are not part of the kernel
  // fingerprint, and suites and tests set them after construction.
  cache::Hasher h(0x6c3e11f0a4d27b95ULL);
  h.add(compilers::fingerprint(spec));
  h.add(bench.fingerprint());
  h.add(apply_quirks_);
  h.add(machine_fp_);
  const kernels::BenchmarkTraits& t = bench.traits;
  h.add(t.explore_placements);
  h.add(t.pow2_ranks_only);
  h.add(t.single_core);
  h.add(t.one_cmg);
  h.add(t.library_fraction);
  return h.h;
}

CellModel Harness::build_model(const compilers::CompilerSpec& spec,
                               const kernels::Benchmark& bench, RowMemo& memo,
                               RunMetrics* metrics,
                               obs::Tracer* tracer) const {
  CellModel model;
  const CompiledCell cell = compile_cell(spec, bench, memo, metrics, tracer);
  const compilers::CompileOutcome& out = *cell.out;
  model.status = cell_status(out.status);
  model.decisions = compilers::decision_summary(out.decisions);
  if (!out.ok()) {
    model.diagnostic = out.diagnostic;
    return model;
  }
  const auto placements =
      candidate_placements(bench.traits, bench.kernel.meta().parallel);
  model.candidates.reserve(placements.size());
  for (const Placement p : placements)
    model.candidates.push_back(candidate_at(cell, p, memo, metrics));
  return model;
}

std::shared_ptr<const CellModel> Harness::model_cached(
    const compilers::CompilerSpec& spec, const kernels::Benchmark& bench,
    RowMemo& memo, RunMetrics* metrics, obs::Tracer* tracer) const {
  const std::uint64_t key = cell_key(spec, bench);
  if (auto found = cells_->find(key, key); found != nullptr) return found;
  auto model = std::make_shared<const CellModel>(
      build_model(spec, bench, memo, metrics, tracer));
  const std::size_t bytes =
      sizeof(CellModel) + model->diagnostic.size() + model->decisions.size() +
      model->candidates.size() * sizeof(CellModel::Candidate);
  return cells_->publish(key, key, std::move(model), bytes).value;
}

MeasuredRun Harness::run(const compilers::CompilerSpec& spec,
                         const kernels::Benchmark& bench,
                         const RunContext& ctx, RunMetrics* metrics) const {
  RowMemo memo;
  return run(spec, bench, memo, ctx, metrics);
}

MeasuredRun Harness::run(const compilers::CompilerSpec& spec,
                         const kernels::Benchmark& bench, RowMemo& memo,
                         const RunContext& ctx, RunMetrics* metrics) const {
  MeasuredRun m;
  m.benchmark = bench.name();
  m.compiler = spec.name;

  // ---- compile phase: look up or build the cell's seed-independent
  // model (compile, reference compile, plans, candidate evaluations) ----
  std::shared_ptr<const CellModel> model;
  {
    const auto span =
        obs::scoped(ctx.tracer, "compile", bench.name(), spec.name);
    const PhaseClock clock(metrics != nullptr ? &metrics->compile_seconds
                                              : nullptr);
    model = model_cached(spec, bench, memo, metrics, ctx.tracer);
  }
  m.status = model->status;
  m.decisions = model->decisions;
  if (!m.valid()) {
    m.diagnostic = model->diagnostic;
    return m;
  }
  const std::vector<CellModel::Candidate>& cands = model->candidates;
  if (cands.empty()) {
    // A topology that admits no candidate at all (degenerate machines:
    // zero cores per domain under a one-CMG constraint).
    throw CellError(CellStatus::RuntimeError,
                    "no feasible placement: machine topology rejects every "
                    "rank x thread candidate");
  }

  const std::uint64_t base = cell_stream(bench.name(), spec.name);
  const double cv = bench.traits.noise_cv;

  // ---- exploration phase: 3 trials per candidate placement ----
  std::size_t best = 0;
  {
    const auto span =
        obs::scoped(ctx.tracer, "explore", bench.name(), spec.name);
    const PhaseClock clock(metrics != nullptr ? &metrics->explore_seconds
                                              : nullptr);
    double best_trial = std::numeric_limits<double>::infinity();
    for (std::size_t pi = 0; pi < cands.size(); ++pi) {
      const double t = cands[pi].seconds;
      for (int trial = 0; trial < 3; ++trial) {
        const double sample = noisy(t, cv, base ^ (pi * 8191 + trial));
        if (sample < best_trial) {
          best_trial = sample;
          best = pi;
        }
      }
    }
  }
  const CellModel::Candidate& win = cands[best];
  m.placement = win.placement;

  // ---- performance phase: 10 runs at the chosen placement ----
  std::array<double, 10> samples{};
  {
    const auto span =
        obs::scoped(ctx.tracer, "measure", bench.name(), spec.name);
    const PhaseClock clock(metrics != nullptr ? &metrics->measure_seconds
                                              : nullptr);
    for (int r = 0; r < 10; ++r) {
      // An injected crash strikes mid-phase, so the recovery path sees a
      // partially evaluated cell, the worst case for isolation; the
      // model is already published, so the next attempt reuses it.
      // Here it is classified; a distrib worker dies before evaluating
      // instead.
      if (r == 4 && ctx.crash) {
        char buf[80];
        std::snprintf(buf, sizeof buf,
                      "injected crash fault at performance run %d (attempt %d)",
                      r + 1, ctx.attempt);
        throw CellError(CellStatus::Crashed, buf);
      }
      samples[static_cast<std::size_t>(r)] =
          noisy(win.seconds, cv, base ^ (0xABCD0000ULL + r));
    }
  }
  m.best_seconds = stats::min(samples);
  m.median_seconds = stats::median(samples);
  m.cv = stats::cv(samples);

  // Characterize the best run by the model's noise-free evaluation of
  // the winning placement.
  m.bottleneck = std::string(win.bottleneck);
  m.gflops = win.total_flops / m.best_seconds / 1e9;
  m.mem_gbs = win.mem_bytes / m.best_seconds / 1e9;
  return m;
}

}  // namespace a64fxcc::runtime
