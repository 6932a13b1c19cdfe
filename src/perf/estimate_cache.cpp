#include "perf/estimate_cache.hpp"

namespace a64fxcc::perf {

namespace {

using cache::mix64;

/// Byte estimates for the tier's reported `bytes` (the --cache-stats
/// table, cache_<name>_bytes, e2ebench's cache.bytes) — pure functions
/// of value content, never of capacities, so the report repeats from
/// run to run.

std::size_t approx_bytes(const KernelPlan& p) {
  std::size_t b = sizeof(KernelPlan);
  for (const StmtPlan& s : p.stmts) {
    b += sizeof(StmtPlan) + s.loop_var.size() + s.trip.size() * sizeof(double);
    for (const AccessPlan& a : s.accesses)
      b += sizeof(AccessPlan) + a.footprint.size() * sizeof(double) +
           a.varies.size() + a.depth_stride_bytes.size() * sizeof(double);
  }
  return b;
}

std::size_t approx_bytes(const PerfResult& r) {
  return sizeof(PerfResult) + r.bottleneck.size();  // cached detail-less
}

std::uint64_t key_fp(std::uint64_t plan, std::uint64_t cfg) {
  return mix64(plan ^ mix64(cfg));
}

}  // namespace

EstimateCache::EstimateCache()
    : owned_plans_(std::make_unique<PlanMap>("plans")),
      owned_evals_(std::make_unique<EvalMap>("estimates")),
      plans_(owned_plans_.get()),
      evals_(owned_evals_.get()) {}

EstimateCache::EstimateCache(cache::Service& svc)
    : plans_(&svc.get_or_create<std::uint64_t, KernelPlan>("plans")),
      evals_(&svc.get_or_create<Key, PerfResult>("estimates")) {}

EstimateCache::PlanResult EstimateCache::get_or_analyze(
    const ir::Kernel& k, std::uint64_t kernel_fp, const machine::Machine& m) {
  const std::uint64_t fp = plan_fingerprint(kernel_fp, m);
  if (auto found = plans_->find(fp, fp); found != nullptr)
    return {std::move(found), true};
  auto plan = std::make_shared<const KernelPlan>(analyze(k, m, fp));
  const std::size_t bytes = approx_bytes(*plan);
  // Losing the publish race keeps the first-inserted plan.
  auto published = plans_->publish(fp, fp, std::move(plan), bytes);
  return {std::move(published.value), published.lost_race};
}

EstimateCache::EvalResult EstimateCache::get_or_evaluate(
    const KernelPlan& plan, const ExecConfig& cfg, const CodegenProfile& prof) {
  const Key key{plan.fingerprint, config_fingerprint(cfg, prof)};
  const std::uint64_t fp = key_fp(key.plan, key.cfg);
  if (auto found = evals_->find(fp, key); found != nullptr)
    return {std::move(found), true};
  auto result = std::make_shared<const PerfResult>(
      evaluate(plan, cfg, prof, /*want_detail=*/false));
  const std::size_t bytes = approx_bytes(*result);
  auto published = evals_->publish(fp, key, std::move(result), bytes);
  return {std::move(published.value), published.lost_race};
}

}  // namespace a64fxcc::perf
