#include "analysis/access.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/dependence.hpp"

namespace a64fxcc::analysis {

namespace {

using ir::Access;
using ir::Expr;
using ir::ExprKind;
using ir::Kernel;
using ir::Loop;
using ir::VarId;

void accumulate_ops(const Expr& e, OpMix& mix) {
  switch (e.kind) {
    case ExprKind::Binary:
      switch (e.bin) {
        case ir::BinOp::Div: mix.divs += 1; break;
        case ir::BinOp::Mod: mix.divs += 1; break;
        default: mix.flops += 1; break;
      }
      break;
    case ExprKind::Unary:
      switch (e.un) {
        case ir::UnOp::Sqrt:
        case ir::UnOp::Exp:
        case ir::UnOp::Log:
        case ir::UnOp::Sin:
        case ir::UnOp::Cos: mix.specials += 1; break;
        case ir::UnOp::Recip: mix.divs += 1; break;
        default: break;  // neg/abs/floor fold into other ops
      }
      break;
    case ExprKind::Load:
      for (const auto& ix : e.access.index)
        if (ix.indirect) {
          mix.int_ops += 1;
          accumulate_ops(*ix.indirect, mix);
        }
      break;
    default: break;
  }
  if (e.a) accumulate_ops(*e.a, mix);
  if (e.b) accumulate_ops(*e.b, mix);
  if (e.c) accumulate_ops(*e.c, mix);
}

}  // namespace

std::optional<std::int64_t> linear_stride(const Access& a, VarId v,
                                          const Kernel& k) {
  if (!a.is_affine()) return std::nullopt;
  const auto& shape = k.tensor(a.tensor).shape;
  const auto& env = k.param_env();
  std::int64_t stride = 0;
  std::int64_t inner = 1;
  for (std::size_t d = shape.size(); d-- > 0;) {
    stride += a.index[d].affine.coeff(v) * inner;
    inner *= shape[d].evaluate(env);
  }
  return stride;
}

AccessPattern classify(const Access& a, bool is_write, VarId v, const Kernel& k) {
  AccessPattern p;
  p.access = &a;
  p.is_write = is_write;
  p.elem_size = size_of(k.tensor(a.tensor).type);
  p.tensor_elems = k.tensor_elems(a.tensor);
  const auto stride = linear_stride(a, v, k);
  if (!stride.has_value()) {
    p.kind = PatternKind::Indirect;
    return p;
  }
  p.stride_elems = *stride;
  if (*stride == 0)
    p.kind = PatternKind::Invariant;
  else if (*stride == 1 || *stride == -1)
    p.kind = PatternKind::Unit;
  else
    p.kind = PatternKind::Strided;
  return p;
}

std::vector<StmtStats> collect_stmt_stats(const Kernel& k) {
  std::vector<StmtStats> out;
  for (auto& ctx : collect_stmts(k)) {
    StmtStats st;
    st.ctx = ctx;
    accumulate_ops(*ctx.stmt->value, st.ops);
    // Also ops in indirect subscripts of the target.
    for (const auto& ix : ctx.stmt->target.index)
      if (ix.indirect) {
        st.ops.int_ops += 1;
        accumulate_ops(*ix.indirect, st.ops);
      }
    // Arithmetic whose result lands in an integer tensor is integer
    // arithmetic: it runs on the scalar/integer pipes, not the FPU/SIMD
    // units, and its quality is the integer-codegen story (GNU's forte).
    if (is_integer(k.tensor(ctx.stmt->target.tensor).type)) {
      st.ops.int_ops += st.ops.flops;
      st.ops.flops = 0;
    }

    const VarId inner_var =
        ctx.innermost() != nullptr ? ctx.innermost()->var : ir::kInvalidVar;

    // Gather accesses with load-dedup: repeated identical affine loads are
    // register-reused by any optimizing compiler.
    std::vector<const Access*> loads;
    const auto add_load = [&](const Access& a) {
      for (const Access* prev : loads)
        if (same_affine_access(*prev, a) && a.is_affine()) return;
      loads.push_back(&a);
    };
    ir::for_each_access(*ctx.stmt->value, add_load);
    for (const auto& ix : ctx.stmt->target.index)
      if (ix.indirect)
        ir::for_each_access(*ix.indirect, add_load);

    st.accesses.push_back(
        classify(ctx.stmt->target, /*is_write=*/true, inner_var, k));
    for (const Access* a : loads)
      st.accesses.push_back(classify(*a, /*is_write=*/false, inner_var, k));

    st.trip = trip_counts(ctx.loops, k);
    st.iters = iteration_count(st.trip);
    st.inner_trip = st.trip.empty() ? 1.0 : st.trip.back();
    out.push_back(std::move(st));
  }
  return out;
}

namespace {

/// Extent of one subscript over the loops chain[from..end):
/// 1 + sum |coeff| * (trip - 1), before clamping to its dimension.
double extent(const ir::AffineExpr& sub, LoopChain chain,
              std::span<const double> trips, std::size_t from) {
  double e = 1.0;
  for (std::size_t d = from; d < chain.size(); ++d) {
    const auto c = static_cast<double>(std::llabs(sub.coeff(chain[d]->var)));
    e += c * std::fmax(trips[d] - 1.0, 0.0);
  }
  return e;
}

}  // namespace

double footprint_lines(const Access& a, LoopChain chain,
                       std::span<const double> trips, std::size_t from_depth,
                       const Kernel& k, double line_bytes) {
  const ir::TensorDecl& t = k.tensor(a.tensor);
  const double es = static_cast<double>(size_of(t.type));
  const double total = static_cast<double>(k.tensor_elems(a.tensor));
  if (!a.is_affine()) {
    // Random: one line per distinct element, capped by the number of
    // lines the whole tensor occupies.
    const double elems = distinct_elements(a, chain, trips, from_depth, k);
    return std::fmin(elems, std::fmax(1.0, total * es / line_bytes));
  }
  if (t.shape.empty()) return 1.0;
  const auto& env = k.param_env();
  // Every dimension but the last multiplies whole lines.
  double lines = 1.0;
  const std::size_t last_d = t.shape.size() - 1;
  for (std::size_t d = 0; d < last_d; ++d)
    lines *= std::fmin(extent(a.index[d].affine, chain, trips, from_depth),
                       static_cast<double>(t.shape[d].evaluate(env)));
  // Last dimension: contiguous run of extent_last elements -> whole lines.
  // When the accessed region covers (nearly) the full last dimension of a
  // row, neighbouring rows merge into one contiguous block, so do not
  // over-round each row up to a full line in that case.
  const double last_dim = static_cast<double>(t.shape[last_d].evaluate(env));
  const double last =
      std::fmin(extent(a.index[last_d].affine, chain, trips, from_depth),
                last_dim);
  double lines_last;
  if (last >= last_dim * 0.99) {
    lines_last = last * es / line_bytes;  // fully contiguous rows
  } else {
    lines_last = std::fmax(1.0, std::ceil(last * es / line_bytes));
  }
  lines *= lines_last;
  const double whole_tensor_lines = std::fmax(1.0, total * es / line_bytes);
  return std::fmin(lines, whole_tensor_lines);
}

double distinct_elements(const Access& a, LoopChain chain,
                         std::span<const double> trips, std::size_t from_depth,
                         const Kernel& k) {
  const double total = static_cast<double>(k.tensor_elems(a.tensor));

  if (!a.is_affine()) {
    // Balls-in-bins: n accesses into E cells touch ~E(1 - e^{-n/E}).
    if (total <= 0) return 0;
    const double iters = iteration_count(trips.subspan(from_depth));
    return total * (1.0 - std::exp(-iters / total));
  }

  // Per-dimension extent, clamped to the dimension.
  const auto& shape = k.tensor(a.tensor).shape;
  const auto& env = k.param_env();
  double distinct = 1.0;
  for (std::size_t d = 0; d < shape.size(); ++d)
    distinct *= std::fmin(extent(a.index[d].affine, chain, trips, from_depth),
                          static_cast<double>(shape[d].evaluate(env)));
  return std::fmin(distinct, total);
}

}  // namespace a64fxcc::analysis
