#include "analysis/manager.hpp"

namespace a64fxcc::analysis {

Manager::Manager(ir::Kernel& k, Options opt)
    : k_(k), opt_(std::move(opt)), fp_(ir::fingerprint(k)) {}

bool Manager::must_compute(bool valid) {
  ++(valid ? counters_.hits : counters_.misses);
  return !valid;
}

const std::vector<Dependence>& Manager::dependences() {
  if (must_compute(deps_.valid)) {
    const auto sp = obs::scoped(opt_.tracer, "analysis:deps", opt_.benchmark,
                                opt_.compiler);
    deps_.value = analyze_dependences(k_);
    deps_.valid = true;
  }
  return deps_.value;
}

const std::vector<StmtStats>& Manager::stmt_stats() {
  if (must_compute(stats_.valid)) {
    const auto sp = obs::scoped(opt_.tracer, "analysis:stats", opt_.benchmark,
                                opt_.compiler);
    stats_.value = collect_stmt_stats(k_);
    stats_.valid = true;
  }
  return stats_.value;
}

const std::vector<PerfectNest>& Manager::nests() {
  if (must_compute(nests_.valid)) {
    const auto sp = obs::scoped(opt_.tracer, "analysis:nests", opt_.benchmark,
                                opt_.compiler);
    nests_.value = collect_perfect_nests(k_);
    nests_.valid = true;
  }
  return nests_.value;
}

void Manager::invalidate(const PreservedAnalyses& preserved) {
  if (preserved.all_preserved()) return;
  const std::uint64_t fp = ir::fingerprint(k_);
  if (fp == fp_) return;  // annotation-only / no structural change
  fp_ = fp;
  if (!preserved.preserved(AnalysisKind::Dependences) && deps_.valid) {
    deps_.value.clear();
    deps_.valid = false;
    ++counters_.invalidations;
  }
  if (!preserved.preserved(AnalysisKind::StmtStats) && stats_.valid) {
    stats_.value.clear();
    stats_.valid = false;
    ++counters_.invalidations;
  }
  if (!preserved.preserved(AnalysisKind::Nests) && nests_.valid) {
    nests_.value.clear();
    nests_.valid = false;
    ++counters_.invalidations;
  }
}

}  // namespace a64fxcc::analysis
