#pragma once
// Memoization of performance-model results — the sibling of
// compilers::CompileCache for the perf side of a study cell.
//
// Both halves of the plan/evaluate split are pure functions, so their
// results can be shared freely as shared_ptr<const T>:
//
//   get_or_analyze(kernel, kernel_fp, machine)  memoizes perf::analyze
//     per plan_fingerprint(kernel_fp, machine), where kernel_fp is the
//     kernel's ir::annotated_fingerprint (IR + annotations + bound
//     params + metadata, hashed by a tree walk that prints nothing).
//     The caller passes that fingerprint in — the harness reads it off
//     the CompileOutcome the compile cache published — so a lookup
//     never walks the kernel, and a miss hands its key to analyze()
//     instead of fingerprinting again.  One plan per compiled cell,
//     shared by every placement evaluated against it.  The FJtrad
//     library-reference kernel of HPL-class benchmarks hits here across
//     every compiler row of a table.
//
//   get_or_evaluate(plan, cfg, prof) memoizes perf::evaluate per
//     (plan fingerprint, placement + codegen-profile fingerprint) — the
//     FJtrad library reference a benchmark's five cells share, and any
//     (plan, placement, profile) two cells' models both score, compute
//     once per study.
//
// Storage is two insert-only tier caches ("plans" and "estimates" on
// the cache::Service, or private maps standalone): mutex-free hits, and
// a cached plan or estimate stays until its map is destroyed.
//
// Thread-safe: calls may race from engine workers.  A miss computes
// outside any lock (the functions are pure, racing results identical)
// and the first insertion wins; the loser counts as a hit, so misses
// equal cached entries at any worker count.

#include <cstdint>
#include <memory>

#include "cache/service.hpp"
#include "perf/plan.hpp"

namespace a64fxcc::perf {

using EstimateCacheStats = cache::Stats;

class EstimateCache {
 public:
  /// Standalone: private maps (tests, ad-hoc tools).
  EstimateCache();
  /// Tier-backed: registered on `svc` as "plans" and "estimates"; shares
  /// warm entries with every other EstimateCache attached to the same
  /// Service.
  explicit EstimateCache(cache::Service& svc);

  struct PlanResult {
    std::shared_ptr<const KernelPlan> plan;
    bool hit = false;
  };
  struct EvalResult {
    std::shared_ptr<const PerfResult> result;
    bool hit = false;
  };

  /// The memoized analyze(k, m), analyzing on first use.  `kernel_fp`
  /// must be ir::annotated_fingerprint(k).
  [[nodiscard]] PlanResult get_or_analyze(const ir::Kernel& k,
                                          std::uint64_t kernel_fp,
                                          const machine::Machine& m);

  /// The memoized evaluate(plan, cfg, prof, /*want_detail=*/false),
  /// evaluating on first use: the scalar fields placement scoring and run
  /// characterization read, without the per-statement breakdown.  `plan`
  /// must stay alive for the call (the cache keeps no reference to it
  /// beyond its fingerprint).
  [[nodiscard]] EvalResult get_or_evaluate(const KernelPlan& plan,
                                           const ExecConfig& cfg,
                                           const CodegenProfile& prof = {});

  /// Plan-memoization counters (analyze calls saved).
  [[nodiscard]] EstimateCacheStats plan_stats() const noexcept {
    return plans_->stats();
  }
  /// Evaluation-memoization counters (estimate calls saved).
  [[nodiscard]] EstimateCacheStats stats() const noexcept {
    return evals_->stats();
  }

  [[nodiscard]] std::size_t plan_count() const { return plans_->size(); }
  [[nodiscard]] std::size_t size() const { return evals_->size(); }

 private:
  struct Key {
    std::uint64_t plan = 0;
    std::uint64_t cfg = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  using PlanMap = cache::ShardedMap<std::uint64_t, KernelPlan>;
  using EvalMap = cache::ShardedMap<Key, PerfResult>;

  std::unique_ptr<PlanMap> owned_plans_;  ///< standalone mode only
  std::unique_ptr<EvalMap> owned_evals_;
  PlanMap* plans_;
  EvalMap* evals_;
};

}  // namespace a64fxcc::perf
