#include "runtime/row_memo.hpp"

#include "cache/fingerprint.hpp"
#include "ir/fingerprint.hpp"

namespace a64fxcc::runtime {

namespace {

void tally(RunMetrics* metrics, int RunMetrics::*counter) {
  if (metrics != nullptr) ++(metrics->*counter);
}

}  // namespace

std::size_t RowMemo::KeyHash::operator()(const CompileKey& k) const noexcept {
  const auto quirks = static_cast<std::uint64_t>(k.quirks);
  return cache::mix64(k.spec ^ cache::mix64(k.kernel ^ quirks));
}

std::size_t RowMemo::KeyHash::operator()(const EvalKey& k) const noexcept {
  return cache::mix64(k.plan ^ cache::mix64(k.cfg));
}

const compilers::CompileOutcome& RowMemo::compile(
    const compilers::CompilerSpec& spec, const kernels::Benchmark& bench,
    bool apply_quirks, RunMetrics* metrics, obs::Tracer* tracer) {
  const CompileKey key{compilers::fingerprint(spec), bench.fingerprint(),
                       apply_quirks};
  if (const auto it = compiles_.find(key); it != compiles_.end()) {
    tally(metrics, &RunMetrics::compile_cache_hits);
    return it->second;
  }
  compilers::CompileOutcome out = compilers::compile(
      spec, bench.kernel, {.apply_quirks = apply_quirks, .tracer = tracer});
  // The plan key every later plan() lookup reads off the outcome.
  if (out.kernel.has_value())
    out.kernel_fingerprint = ir::annotated_fingerprint(*out.kernel);
  tally(metrics, &RunMetrics::compile_cache_misses);
  if (metrics != nullptr) {
    metrics->analysis_cache_hits += out.analysis_cache.hits;
    metrics->analysis_cache_misses += out.analysis_cache.misses;
    metrics->analysis_cache_invalidations += out.analysis_cache.invalidations;
  }
  return compiles_.emplace(key, std::move(out)).first->second;
}

const perf::KernelPlan& RowMemo::plan(const compilers::CompileOutcome& out,
                                      const machine::Machine& m,
                                      RunMetrics* metrics) {
  const std::uint64_t fp = perf::plan_fingerprint(out.kernel_fingerprint, m);
  if (const auto it = plans_.find(fp); it != plans_.end()) {
    tally(metrics, &RunMetrics::plan_cache_hits);
    return it->second;
  }
  perf::KernelPlan plan = perf::analyze(*out.kernel, m, fp);
  tally(metrics, &RunMetrics::plan_cache_misses);
  return plans_.emplace(fp, std::move(plan)).first->second;
}

const perf::PerfResult& RowMemo::evaluate(const perf::KernelPlan& plan,
                                          const perf::ExecConfig& cfg,
                                          const perf::CodegenProfile& prof,
                                          RunMetrics* metrics) {
  const EvalKey key{plan.fingerprint, perf::config_fingerprint(cfg, prof)};
  if (const auto it = evals_.find(key); it != evals_.end()) {
    tally(metrics, &RunMetrics::estimate_cache_hits);
    return it->second;
  }
  perf::PerfResult result = perf::evaluate(plan, cfg, prof, false);
  tally(metrics, &RunMetrics::estimate_cache_misses);
  return evals_.emplace(key, std::move(result)).first->second;
}

}  // namespace a64fxcc::runtime
