#pragma once
// Lazy, invalidation-aware analysis caching for one kernel under
// transformation — the reproduction's analogue of LLVM's AnalysisManager
// with Polly-style preserved-analyses sets.
//
// A Manager wraps the kernel a pipeline is mutating and memoizes the
// three analyses the restructuring passes query repeatedly: the
// dependence graph, per-statement access/op stats, and perfect-nest
// structure.  Passes report what they preserved via
// PassResult::preserved; the pipeline (and the passes themselves, right
// after mutating) call invalidate(), which drops only the non-preserved
// results — and only when the kernel's structural fingerprint
// (ir::fingerprint, annotation-blind) actually changed.  A blocked or
// annotation-only pass therefore keeps every cache warm, which is the
// common case across the paper's five compiler models.
//
// Lifetime contract: cached Dependence records and PerfectNest entries
// hold raw pointers into *this* kernel's nodes.  That is safe because
// (a) the Manager is created per compile() against the pipeline's
// private clone, and (b) passes only destroy or create nodes as part of
// a fingerprint-visible structural change, so a stable fingerprint
// implies every cached pointer is still live.  Passes that mutate the
// tree must call invalidate() before the next analysis query (the
// in-pass self-invalidation you see in interchange/tile/fuse).
//
// Determinism contract: hit/miss/invalidation counters are a pure
// function of the pipeline's query sequence, so decision provenance and
// explain output are too.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/access.hpp"
#include "analysis/dependence.hpp"
#include "analysis/nest.hpp"
#include "ir/fingerprint.hpp"
#include "obs/trace.hpp"

namespace a64fxcc::analysis {

enum class AnalysisKind : std::uint8_t {
  Dependences = 1u << 0,
  StmtStats = 1u << 1,
  Nests = 1u << 2,
};

/// What a pass left intact.  Defaults to all-preserved, which is correct
/// for passes that refuse to fire and for annotation-only passes.
class PreservedAnalyses {
 public:
  [[nodiscard]] static PreservedAnalyses all() noexcept {
    return PreservedAnalyses{kAll};
  }
  [[nodiscard]] static PreservedAnalyses none() noexcept {
    return PreservedAnalyses{0};
  }

  PreservedAnalyses() noexcept : mask_(kAll) {}

  PreservedAnalyses& preserve(AnalysisKind k) noexcept {
    mask_ |= static_cast<std::uint8_t>(k);
    return *this;
  }
  [[nodiscard]] bool preserved(AnalysisKind k) const noexcept {
    return (mask_ & static_cast<std::uint8_t>(k)) != 0;
  }
  [[nodiscard]] bool all_preserved() const noexcept { return mask_ == kAll; }

  /// Keep only what both sets preserve (drivers like `polly` fold their
  /// sub-passes' sets into one).
  PreservedAnalyses& intersect(const PreservedAnalyses& o) noexcept {
    mask_ &= o.mask_;
    return *this;
  }

  friend bool operator==(const PreservedAnalyses&,
                         const PreservedAnalyses&) = default;

 private:
  static constexpr std::uint8_t kAll =
      static_cast<std::uint8_t>(AnalysisKind::Dependences) |
      static_cast<std::uint8_t>(AnalysisKind::StmtStats) |
      static_cast<std::uint8_t>(AnalysisKind::Nests);

  explicit PreservedAnalyses(std::uint8_t m) noexcept : mask_(m) {}

  std::uint8_t mask_;
};

struct ManagerCounters {
  int hits = 0;           ///< queries answered by a valid cached result
  int misses = 0;         ///< queries that had to (re)compute
  int invalidations = 0;  ///< cached results dropped by invalidate()

  friend bool operator==(const ManagerCounters&,
                         const ManagerCounters&) = default;
};

class Manager {
 public:
  struct Options {
    obs::Tracer* tracer = nullptr;
    std::string benchmark;      ///< span attribution (kernel name)
    std::string compiler;       ///< span attribution (compiler label)
  };

  /// Binds to `k` for the Manager's lifetime; computes the structural
  /// fingerprint eagerly, analyses lazily on first query.
  explicit Manager(ir::Kernel& k) : Manager(k, Options{}) {}
  Manager(ir::Kernel& k, Options opt);

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  [[nodiscard]] ir::Kernel& kernel() noexcept { return k_; }
  [[nodiscard]] const ir::Kernel& kernel() const noexcept { return k_; }

  /// The cached analyses.  References stay valid until the next
  /// invalidate() that drops the corresponding kind; callers that mutate
  /// the kernel while iterating (interchange's permutation search,
  /// polly's tile loop) must copy first.
  [[nodiscard]] const std::vector<Dependence>& dependences();
  [[nodiscard]] const std::vector<StmtStats>& stmt_stats();
  [[nodiscard]] const std::vector<PerfectNest>& nests();

  /// Drop every cached analysis `preserved` does not cover — but only if
  /// the kernel's structural fingerprint actually changed (annotation-
  /// only mutations keep everything).  Cheap no-op when all_preserved().
  void invalidate(const PreservedAnalyses& preserved);

  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fp_; }
  [[nodiscard]] const ManagerCounters& counters() const noexcept {
    return counters_;
  }

 private:
  template <typename T>
  struct Slot {
    T value;
    bool valid = false;
  };

  /// Shared hit/miss bookkeeping: returns true on a miss, when the
  /// caller must compute into the slot.
  bool must_compute(bool valid);

  ir::Kernel& k_;
  Options opt_;
  std::uint64_t fp_ = 0;
  ManagerCounters counters_;
  Slot<std::vector<Dependence>> deps_;
  Slot<std::vector<StmtStats>> stats_;
  Slot<std::vector<PerfectNest>> nests_;
};

}  // namespace a64fxcc::analysis
