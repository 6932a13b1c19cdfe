#pragma once
// Access-pattern and operation-mix analysis.
//
// Classifies every tensor access of a statement with respect to the
// innermost enclosing loop (invariant / unit-stride / strided / indirect)
// and summarizes the arithmetic operations per statement execution.
// These are the features both the compiler models (vectorization
// profitability, interchange scoring) and the performance model consume.

#include <optional>
#include <vector>

#include "analysis/stmt_ctx.hpp"

namespace a64fxcc::analysis {

enum class PatternKind : std::uint8_t { Invariant, Unit, Strided, Indirect };

struct AccessPattern {
  const ir::Access* access = nullptr;
  bool is_write = false;
  PatternKind kind = PatternKind::Invariant;
  std::int64_t stride_elems = 0;  ///< linearized element stride (Unit/Strided)
  std::size_t elem_size = 8;
  std::int64_t tensor_elems = 0;  ///< total elements of the accessed tensor
};

/// Operation counts per single execution of a statement.
struct OpMix {
  double flops = 0;    ///< add/sub/mul/min/max/cmp/select (FMA-able class)
  double divs = 0;     ///< divide / reciprocal
  double specials = 0; ///< sqrt/exp/log/sin/cos
  double int_ops = 0;  ///< address/index arithmetic via indirect subscripts

  [[nodiscard]] double total() const noexcept { return flops + divs + specials; }
};

/// Row-major linearized element stride of an affine access with respect
/// to loop variable v; nullopt when any subscript is indirect.
[[nodiscard]] std::optional<std::int64_t> linear_stride(const ir::Access& a,
                                                        ir::VarId v,
                                                        const ir::Kernel& k);

/// Classify one access w.r.t. loop variable v.
[[nodiscard]] AccessPattern classify(const ir::Access& a, bool is_write,
                                     ir::VarId v, const ir::Kernel& k);

struct StmtStats {
  StmtCtx ctx;
  OpMix ops;
  /// Deduplicated accesses (a load structurally equal to the store target
  /// or to another load appears once; the store itself is always kept).
  std::vector<AccessPattern> accesses;
  /// trip_counts(ctx.loops, k): one count per enclosing loop, outermost
  /// first.  iters and inner_trip are derived from it.
  std::vector<double> trip;
  double iters = 1;       ///< total executions of the statement
  double inner_trip = 1;  ///< trip count of the innermost enclosing loop
};

/// Per-statement stats for the whole kernel, in execution order.
[[nodiscard]] std::vector<StmtStats> collect_stmt_stats(const ir::Kernel& k);

/// Approximate number of *distinct* elements of `a`'s tensor touched by
/// one complete execution of the loops chain[from_depth..end) (a
/// contiguous innermost sub-chain of the statement's loop chain,
/// outermost first).  `trips` must be trip_counts(chain, k) (or the
/// statement's StmtStats::trip), so the counts are derived once per
/// chain, not once per query.  Indirect accesses use a balls-in-bins
/// estimate over the whole tensor.
[[nodiscard]] double distinct_elements(const ir::Access& a,
                                       LoopChain chain,
                                       std::span<const double> trips,
                                       std::size_t from_depth,
                                       const ir::Kernel& k);

/// Approximate number of distinct *cache lines* touched by one complete
/// execution of loops chain[from_depth..end); `trips` as for
/// distinct_elements.  Contiguity is credited only along the last
/// (fastest) tensor dimension; every other dimension multiplies whole
/// lines.  This is what makes A64FX's 256-byte lines punish column
/// traversals: a column of n doubles occupies n lines (n*256 bytes of
/// cache), not n*8 bytes.
[[nodiscard]] double footprint_lines(const ir::Access& a, LoopChain chain,
                                     std::span<const double> trips,
                                     std::size_t from_depth,
                                     const ir::Kernel& k, double line_bytes);

}  // namespace a64fxcc::analysis
