#pragma once
// Statement contexts: each statement paired with its enclosing loop chain.
//
// Kernels are imperfect loop trees (init statements between loops, etc.);
// analyses and the performance model work uniformly on per-statement
// contexts instead of requiring perfect nests.

#include <span>
#include <vector>

#include "ir/kernel.hpp"

namespace a64fxcc::analysis {

/// A view over a chain of enclosing loops, outermost first.
using LoopChain = std::span<const ir::Loop* const>;

struct StmtCtx {
  const ir::Stmt* stmt = nullptr;
  const ir::Node* node = nullptr;           ///< the Stmt node itself
  std::vector<const ir::Loop*> loops;       ///< outermost..innermost enclosing loops

  [[nodiscard]] const ir::Loop* innermost() const noexcept {
    return loops.empty() ? nullptr : loops.back();
  }
  [[nodiscard]] int depth() const noexcept { return static_cast<int>(loops.size()); }
};

/// Collect all statement contexts of a kernel in execution order.
[[nodiscard]] std::vector<StmtCtx> collect_stmts(const ir::Kernel& k);

/// Estimated trip counts of every loop of `chain`, outermost first, in
/// one pass: each loop's bounds are evaluated with parameters bound and
/// every outer loop variable set to the midpoint of its own (estimated)
/// range, which handles triangular nests.  Each count is at least 0.
/// The only trip-count rule: statement stats, footprints and plans all
/// read its result.
[[nodiscard]] std::vector<double> trip_counts(LoopChain chain,
                                              const ir::Kernel& k);

/// Total number of executions of a statement: the product of its
/// chain's trip counts, outermost first.
[[nodiscard]] double iteration_count(std::span<const double> trips);

}  // namespace a64fxcc::analysis
