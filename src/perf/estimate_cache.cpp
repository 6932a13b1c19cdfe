#include "perf/estimate_cache.hpp"

namespace a64fxcc::perf {

namespace {

using cache::mix64;

/// Deterministic byte estimates — pure functions of value content only
/// (the eviction order depends on them; never read capacities).

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
  std::size_t b = sizeof(PerfResult) + r.bottleneck.size();
  for (const auto& d : r.detail) b += sizeof(d);
  return b;
}

/// Salt folded into the shard fingerprint of detail-less entries so the
/// two evaluate() modes of one (plan, config) never share a slot.
constexpr std::uint64_t kNoDetailSalt = 0x9e3779b97f4a7c15ULL;

std::uint64_t key_fp(std::uint64_t plan, std::uint64_t cfg, bool detail) {
  return mix64(plan ^ mix64(cfg) ^ (detail ? 0 : kNoDetailSalt));
}

}  // namespace

EstimateCache::EstimateCache()
    : owned_plans_(std::make_unique<PlanMap>("plans")),
      owned_evals_(std::make_unique<EvalMap>("estimates")),
      plans_(owned_plans_.get()),
      evals_(owned_evals_.get()) {}

EstimateCache::EstimateCache(cache::Service& svc)
    : plans_(&svc.get_or_create<std::uint64_t, KernelPlan>("plans",
                                                           /*weight=*/2)),
      evals_(&svc.get_or_create<Key, PerfResult>("estimates", /*weight=*/1)) {}

EstimateCache::PlanResult EstimateCache::get_or_analyze(
    const ir::Kernel& k, const machine::Machine& m) {
  const std::uint64_t fp = plan_fingerprint(k, m);
  if (auto found = plans_->find(fp, fp); found != nullptr)
    return {std::move(found), true, 0};
  auto plan = std::make_shared<const KernelPlan>(analyze(k, m));
  const std::size_t bytes = approx_bytes(*plan);
  // Losing the publish race keeps the first-inserted plan.
  auto published = plans_->publish(fp, fp, std::move(plan), bytes);
  return {std::move(published.value), published.lost_race, published.evicted};
}

EstimateCache::EvalResult EstimateCache::get_or_evaluate(
    const KernelPlan& plan, const ExecConfig& cfg, const CodegenProfile& prof,
    bool want_detail) {
  const Key key{plan.fingerprint, config_fingerprint(cfg, prof), want_detail};
  const std::uint64_t fp = key_fp(key.plan, key.cfg, key.detail);
  if (auto found = evals_->find(fp, key); found != nullptr)
    return {std::move(found), true, 0};
  auto result = std::make_shared<const PerfResult>(
      evaluate(plan, cfg, prof, want_detail));
  const std::size_t bytes = approx_bytes(*result);
  auto published = evals_->publish(fp, key, std::move(result), bytes);
  return {std::move(published.value), published.lost_race, published.evicted};
}

EstimateCache::SweepResult EstimateCache::get_or_evaluate_sweep(
    const KernelPlan& plan, std::span<const ExecConfig> cfgs,
    const CodegenProfile& prof, bool want_detail) {
  const std::size_t n = cfgs.size();
  SweepResult out;
  out.results.resize(n);
  if (n == 0) return out;

  // Probe phase: one config fingerprint per config per sweep (the
  // sequential path recomputes it on every get_or_evaluate call).
  std::vector<Key> keys(n);
  std::vector<std::uint64_t> fps(n);
  std::vector<std::size_t> miss_lead;  // first occurrence of each missed key
  std::vector<std::pair<std::size_t, std::size_t>> miss_dups;  // (dup, lead)
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] =
        Key{plan.fingerprint, config_fingerprint(cfgs[i], prof), want_detail};
    fps[i] = key_fp(keys[i].plan, keys[i].cfg, keys[i].detail);
    if (auto found = evals_->find(fps[i], keys[i]); found != nullptr) {
      out.results[i] = std::move(found);
      ++out.hits;
      continue;
    }
    // A config repeated within the sweep would have hit the entry its
    // first occurrence published on the sequential path; defer it so the
    // counters stay call-order equivalent.
    std::size_t lead = miss_lead.size();
    for (std::size_t j = 0; j < miss_lead.size(); ++j) {
      if (keys[miss_lead[j]] == keys[i]) {
        lead = j;
        break;
      }
    }
    if (lead < miss_lead.size())
      miss_dups.emplace_back(i, miss_lead[lead]);
    else
      miss_lead.push_back(i);
  }

  // Fill phase: one batched evaluate over the distinct misses, outside
  // any lock (pure function; a racing publisher's first insert wins).
  if (!miss_lead.empty()) {
    std::vector<ExecConfig> miss_cfgs;
    miss_cfgs.reserve(miss_lead.size());
    for (const std::size_t i : miss_lead) miss_cfgs.push_back(cfgs[i]);
    auto filled = evaluate_sweep(plan, miss_cfgs, prof, want_detail);
    for (std::size_t j = 0; j < miss_lead.size(); ++j) {
      const std::size_t i = miss_lead[j];
      auto result =
          std::make_shared<const PerfResult>(std::move(filled[j]));
      const std::size_t bytes = approx_bytes(*result);
      auto published = evals_->publish(fps[i], keys[i], std::move(result), bytes);
      out.results[i] = std::move(published.value);
      ++(published.lost_race ? out.hits : out.misses);
      out.evicted += published.evicted;
    }
    for (const auto& [dup, lead] : miss_dups) {
      out.results[dup] = out.results[lead];
      ++out.hits;
    }
  }
  return out;
}

void EstimateCache::clear() {
  plans_->drop_values();
  evals_->drop_values();
}

}  // namespace a64fxcc::perf
