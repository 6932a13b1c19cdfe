#include "analysis/dependence.hpp"

#include <algorithm>
#include <cassert>

namespace a64fxcc::analysis {

namespace {

using ir::Access;
using ir::AffineExpr;
using ir::BinOp;
using ir::Expr;
using ir::ExprKind;
using ir::Kernel;
using ir::Loop;
using ir::Stmt;
using ir::VarId;

struct AccessRef {
  const Access* access = nullptr;
  bool is_write = false;
};

/// All accesses performed by a statement (target + every load, including
/// loads buried in indirect subscripts).
std::vector<AccessRef> accesses_of(const Stmt& s) {
  std::vector<AccessRef> out;
  out.push_back({&s.target, true});
  for (const auto& ix : s.target.index)
    if (ix.indirect)
      ir::for_each_access(*ix.indirect,
                          [&](const Access& a) { out.push_back({&a, false}); });
  ir::for_each_access(*s.value,
                      [&](const Access& a) { out.push_back({&a, false}); });
  return out;
}

/// Result of solving the per-pair dependence equations.
struct Solve {
  bool dependence = true;  ///< false: proven independent
  std::vector<Dir> dirs;
};

bool uses_only(const AffineExpr& e, const std::vector<VarId>& allowed_loops,
               const Kernel& k) {
  for (const auto& [v, c] : e.terms()) {
    (void)c;
    const bool is_param =
        std::any_of(k.params().begin(), k.params().end(),
                    [v](const auto& p) { return p.id == v; });
    if (is_param) continue;
    if (std::find(allowed_loops.begin(), allowed_loops.end(), v) ==
        allowed_loops.end())
      return false;
  }
  return true;
}

/// Constant part of an affine expression with parameters substituted.
std::int64_t const_part(const AffineExpr& e, const Kernel&,
                        std::span<const std::int64_t> env,
                        const std::vector<VarId>& common) {
  std::int64_t c = e.constant_term();
  for (const auto& [v, coeff] : e.terms()) {
    if (std::find(common.begin(), common.end(), v) == common.end())
      c += coeff * env[static_cast<std::size_t>(v)];
  }
  return c;
}

Solve solve_pair(const Access& f, const Access& g,
                 const std::vector<VarId>& common, const Kernel& k) {
  const std::size_t d = common.size();
  Solve out;
  out.dirs.assign(d, Dir::Star);

  if (!f.is_affine() || !g.is_affine() || f.index.size() != g.index.size())
    return out;  // all Star

  const auto& env = k.param_env();
  std::vector<bool> pinned(d, false);
  std::vector<std::int64_t> sigma(d, 0);

  for (std::size_t m = 0; m < f.index.size(); ++m) {
    const AffineExpr& fe = f.index[m].affine;
    const AffineExpr& ge = g.index[m].affine;
    if (!uses_only(fe, common, k) || !uses_only(ge, common, k))
      continue;  // involves private loop vars of one side: no constraint
    // Coefficients must match on common vars, otherwise conservative.
    bool coeff_match = true;
    std::vector<std::pair<std::size_t, std::int64_t>> terms;  // (common idx, c)
    for (std::size_t ci = 0; ci < d; ++ci) {
      const std::int64_t cf = fe.coeff(common[ci]);
      const std::int64_t cg = ge.coeff(common[ci]);
      if (cf != cg) {
        coeff_match = false;
        break;
      }
      if (cf != 0) terms.emplace_back(ci, cf);
    }
    if (!coeff_match) continue;  // conservative: this dim gives no constraint
    const std::int64_t K = const_part(fe, k, env, common) -
                           const_part(ge, k, env, common);
    if (terms.empty()) {
      if (K != 0) {
        out.dependence = false;  // e.g. A[i][0] vs A[i][1]: disjoint
        return out;
      }
      continue;
    }
    if (terms.size() == 1) {
      const auto [ci, c] = terms[0];
      if (K % c != 0) {
        out.dependence = false;
        return out;
      }
      const std::int64_t s = K / c;
      if (pinned[ci] && sigma[ci] != s) {
        out.dependence = false;
        return out;
      }
      pinned[ci] = true;
      sigma[ci] = s;
    }
    // terms.size() > 1: coupled subscript (e.g. A[i+j]) — leave Star.
  }

  for (std::size_t ci = 0; ci < d; ++ci) {
    if (!pinned[ci]) continue;
    out.dirs[ci] = sigma[ci] > 0 ? Dir::Lt : (sigma[ci] < 0 ? Dir::Gt : Dir::Eq);
  }
  return out;
}

/// Lexicographic sign of a fully instantiated vector: -1, 0, +1.
int lex_sign(std::span<const Dir> v) {
  for (const Dir dd : v) {
    if (dd == Dir::Lt) return 1;
    if (dd == Dir::Gt) return -1;
    assert(dd == Dir::Eq);
  }
  return 0;
}

/// Enumerate Star instantiations, invoking fn on each concrete vector.
/// Returns false (and stops) if fn returns false.
bool enumerate(std::span<const Dir> dirs, std::vector<Dir>& cur, std::size_t pos,
               const std::function<bool(std::span<const Dir>)>& fn) {
  if (pos == dirs.size()) return fn(cur);
  if (dirs[pos] != Dir::Star) {
    cur[pos] = dirs[pos];
    return enumerate(dirs, cur, pos + 1, fn);
  }
  for (const Dir dd : {Dir::Lt, Dir::Eq, Dir::Gt}) {
    cur[pos] = dd;
    if (!enumerate(dirs, cur, pos + 1, fn)) return false;
  }
  return true;
}

bool any_instantiation(std::span<const Dir> dirs,
                       const std::function<bool(std::span<const Dir>)>& pred) {
  // Guard against blow-up: with > 8 Stars answer conservatively.
  const auto stars = static_cast<std::size_t>(
      std::count(dirs.begin(), dirs.end(), Dir::Star));
  if (stars > 8) return true;
  std::vector<Dir> cur(dirs.size(), Dir::Eq);
  bool found = false;
  enumerate(dirs, cur, 0, [&](std::span<const Dir> v) {
    if (pred(v)) {
      found = true;
      return false;  // stop
    }
    return true;
  });
  return found;
}

}  // namespace

bool same_affine_access(const Access& a, const Access& b) {
  if (a.tensor != b.tensor || a.index.size() != b.index.size()) return false;
  for (std::size_t i = 0; i < a.index.size(); ++i) {
    if (!a.index[i].is_affine() || !b.index[i].is_affine()) return false;
    if (!(a.index[i].affine == b.index[i].affine)) return false;
  }
  return true;
}

std::optional<BinOp> reduction_op(const Stmt& s) {
  const Expr& v = *s.value;
  if (v.kind != ExprKind::Binary) return std::nullopt;
  if (v.bin != BinOp::Add && v.bin != BinOp::Mul && v.bin != BinOp::Min &&
      v.bin != BinOp::Max)
    return std::nullopt;
  const auto matches = [&](const Expr& side) {
    return side.kind == ExprKind::Load && same_affine_access(side.access, s.target);
  };
  if (matches(*v.a) || matches(*v.b)) return v.bin;
  return std::nullopt;
}

namespace {

/// Dependences between one ordered statement pair (`same` = the pair is a
/// statement with itself).  Shared by the full analysis and the
/// group-restricted variant so the two are verdict-identical per pair.
void append_pair_deps(const StmtCtx& a, const StmtCtx& b, bool same,
                      const Kernel& k, std::vector<Dependence>& deps) {
  // Common loop chain (pointer-equal prefix).
  std::vector<const Loop*> chain;
  std::vector<VarId> common;
  for (std::size_t d = 0; d < std::min(a.loops.size(), b.loops.size()); ++d) {
    if (a.loops[d] != b.loops[d]) break;
    chain.push_back(a.loops[d]);
    common.push_back(a.loops[d]->var);
  }
  const auto accs_a = accesses_of(*a.stmt);
  const auto accs_b = accesses_of(*b.stmt);
  for (std::size_t ia = 0; ia < accs_a.size(); ++ia) {
    for (std::size_t ib = 0; ib < accs_b.size(); ++ib) {
      if (same && ib < ia) continue;  // unordered within a stmt
      const auto& x = accs_a[ia];
      const auto& y = accs_b[ib];
      if (x.access->tensor != y.access->tensor) continue;
      if (!x.is_write && !y.is_write) continue;
      // The same textual access paired with itself only matters when
      // it is a write (distinct iterations may collide, e.g. an
      // indirect scatter or a non-injective affine store).
      if (same && ia == ib && !x.is_write) continue;
      Solve sol = solve_pair(*x.access, *y.access, common, k);
      if (!sol.dependence) continue;
      Dependence dep;
      dep.tensor = x.access->tensor;
      dep.src = a.stmt;
      dep.dst = b.stmt;
      dep.chain = chain;
      dep.dirs = std::move(sol.dirs);
      dep.kind = x.is_write && y.is_write
                     ? DepKind::Output
                     : (x.is_write ? DepKind::Flow : DepKind::Anti);
      if (same) {
        // Only the update pair itself (target <-> the structurally
        // identical load) is a reduction; other self-dependences of
        // the same statement (e.g. x[i-1] in x[i] = x[i-1]*c + x[i])
        // are genuine recurrences and must stay blocking.
        const auto red = reduction_op(*a.stmt);
        dep.reduction = red.has_value() &&
                        same_affine_access(*x.access, a.stmt->target) &&
                        same_affine_access(*y.access, a.stmt->target);
      }
      deps.push_back(std::move(dep));
    }
  }
}

}  // namespace

std::vector<Dependence> analyze_dependences(const Kernel& k) {
  const auto stmts = collect_stmts(k);
  std::vector<Dependence> deps;
  for (std::size_t s1 = 0; s1 < stmts.size(); ++s1)
    for (std::size_t s2 = s1; s2 < stmts.size(); ++s2)
      append_pair_deps(stmts[s1], stmts[s2], s1 == s2, k, deps);
  return deps;
}

std::vector<Dependence> analyze_dependences_between(
    const Kernel& k, std::span<const ir::Stmt* const> ga,
    std::span<const ir::Stmt* const> gb) {
  const auto stmts = collect_stmts(k);
  const auto in = [](std::span<const ir::Stmt* const> g, const Stmt* s) {
    return std::find(g.begin(), g.end(), s) != g.end();
  };
  std::vector<Dependence> deps;
  for (std::size_t s1 = 0; s1 < stmts.size(); ++s1) {
    const bool a_in_ga = in(ga, stmts[s1].stmt);
    const bool a_in_gb = in(gb, stmts[s1].stmt);
    if (!a_in_ga && !a_in_gb) continue;
    for (std::size_t s2 = s1 + 1; s2 < stmts.size(); ++s2) {
      const bool cross = (a_in_ga && in(gb, stmts[s2].stmt)) ||
                         (a_in_gb && in(ga, stmts[s2].stmt));
      if (!cross) continue;
      append_pair_deps(stmts[s1], stmts[s2], false, k, deps);
    }
  }
  return deps;
}

bool violates_permutation(const Dependence& dep, std::span<const int> perm) {
  assert(perm.size() == dep.dirs.size());
  return any_instantiation(dep.dirs, [&](std::span<const Dir> v) {
    if (lex_sign(v) < 0) return false;  // not a valid source-before-sink pair
    std::vector<Dir> permuted(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
      permuted[i] = v[static_cast<std::size_t>(perm[i])];
    return lex_sign(permuted) < 0;
  });
}

bool carried_by(const Dependence& dep, const Loop& loop) {
  const auto it = std::find(dep.chain.begin(), dep.chain.end(), &loop);
  if (it == dep.chain.end()) return false;
  const auto pos = static_cast<std::size_t>(it - dep.chain.begin());
  return any_instantiation(dep.dirs, [&](std::span<const Dir> v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] == Dir::Eq) continue;
      return v[i] == Dir::Lt && i == pos;
    }
    return false;  // all-Eq: loop-independent
  });
}

}  // namespace a64fxcc::analysis
