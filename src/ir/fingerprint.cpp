#include "ir/fingerprint.hpp"

#include <string>

#include "cache/fingerprint.hpp"
#include "ir/printer.hpp"

namespace a64fxcc::ir {

namespace {

// The shared Hasher's default seed and mixing match this file's
// historical private copy bit for bit: structural fingerprints (and the
// analysis seeds and journal entries keyed by them) are unchanged.
using cache::Hasher;

// Distinct tags keep adjacent constructs from aliasing (e.g. a loop with
// an empty body vs a statement following it).
enum Tag : std::uint64_t {
  kAffine = 0x41,
  kIndexAffine = 0x42,
  kIndexIndirect = 0x43,
  kAccess = 0x44,
  kExpr = 0x45,
  kNull = 0x46,
  kLoop = 0x47,
  kStmt = 0x48,
  kListEnd = 0x49,
};

void add_affine(Hasher& h, const AffineExpr& e) {
  h.add(kAffine);
  h.add(e.constant_term());
  // terms() is canonical (sorted by VarId, no zero coefficients), so
  // walking it in order is a stable structural hash.
  for (const auto& [v, c] : e.terms()) {
    h.add(static_cast<std::uint64_t>(v));
    h.add(c);
  }
  h.add(kListEnd);
}

void add_expr(Hasher& h, const Expr* e);

void add_access(Hasher& h, const Access& a) {
  h.add(kAccess);
  h.add(static_cast<std::uint64_t>(a.tensor));
  for (const auto& ix : a.index) {
    if (ix.is_affine()) {
      h.add(kIndexAffine);
      add_affine(h, ix.affine);
    } else {
      h.add(kIndexIndirect);
      add_affine(h, ix.affine);
      add_expr(h, ix.indirect.get());
    }
  }
  h.add(kListEnd);
}

void add_expr(Hasher& h, const Expr* e) {
  if (e == nullptr) {
    h.add(kNull);
    return;
  }
  h.add(kExpr);
  h.add(static_cast<std::uint64_t>(e->kind));
  switch (e->kind) {
    case ExprKind::Const:
      h.add(e->fconst);
      break;
    case ExprKind::Load:
      add_access(h, e->access);
      break;
    case ExprKind::Var:
      h.add(static_cast<std::uint64_t>(e->var));
      break;
    case ExprKind::Unary:
      h.add(static_cast<std::uint64_t>(e->un));
      add_expr(h, e->a.get());
      break;
    case ExprKind::Binary:
      h.add(static_cast<std::uint64_t>(e->bin));
      add_expr(h, e->a.get());
      add_expr(h, e->b.get());
      break;
    case ExprKind::Select:
      add_expr(h, e->a.get());
      add_expr(h, e->b.get());
      add_expr(h, e->c.get());
      break;
  }
}

void add_annot(Hasher& h, const LoopAnnot& a) {
  h.add(a.vector_width);
  h.add(a.unroll);
  h.add(a.parallel);
  h.add(a.prefetch_dist);
  h.add(a.pipelined);
  h.add(a.tiled);
  h.add(a.ocl_unroll);
  h.add(a.ocl_prefetch);
  h.add(a.ocl_simd);
}

void add_node(Hasher& h, const Node& n, bool annotated) {
  if (n.is_loop()) {
    const Loop& l = n.loop;
    h.add(kLoop);
    h.add(static_cast<std::uint64_t>(l.var));
    add_affine(h, l.lower);
    add_affine(h, l.upper);
    if (l.upper2.has_value()) {
      add_affine(h, *l.upper2);
    } else {
      h.add(kNull);
    }
    h.add(l.step);
    // No cached analysis reads loop annotations, so the structural walk
    // skips them and annotation-only passes keep fingerprint() stable.
    if (annotated) add_annot(h, l.annot);
    for (const auto& c : l.body) add_node(h, *c, annotated);
    h.add(kListEnd);
  } else {
    h.add(kStmt);
    add_access(h, n.stmt.target);
    add_expr(h, n.stmt.value.get());
  }
}

/// The tree walk behind fingerprint() (`annotated` false) and
/// annotated_fingerprint() (`annotated` true: adds the variable names
/// and every loop annotation, the rest of what the printer shows).
std::uint64_t walk(const Kernel& k, bool annotated) {
  Hasher h;
  h.add(k.name());
  h.add(static_cast<std::uint64_t>(k.meta().language));
  h.add(static_cast<std::uint64_t>(k.meta().parallel));
  h.add(k.meta().suite);
  for (const auto& p : k.params()) {
    h.add(p.name);
    h.add(p.value);
  }
  h.add(kListEnd);
  if (annotated) {
    for (const auto& name : k.var_names()) h.add(name);
    h.add(kListEnd);
  }
  for (const auto& t : k.tensors()) {
    h.add(t.name);
    h.add(static_cast<std::uint64_t>(t.type));
    for (const auto& s : t.shape) add_affine(h, s);
    h.add(t.is_input);
  }
  h.add(kListEnd);
  for (const auto& r : k.roots()) add_node(h, *r, annotated);
  h.add(kListEnd);
  return h.h;
}

}  // namespace

std::uint64_t fingerprint(const Kernel& k) { return walk(k, false); }

std::uint64_t annotated_fingerprint(const Kernel& k) { return walk(k, true); }

std::uint64_t content_fingerprint(const Kernel& k) {
  // Default seed and field order are those of the historical compile
  // key's kernel fingerprint: journal keys persist across builds.
  Hasher h;
  h.add(k.name());
  h.add(static_cast<std::uint64_t>(k.meta().language));
  h.add(static_cast<std::uint64_t>(k.meta().parallel));
  h.add(k.meta().suite);
  // Bound parameter values capture the problem scale even where the
  // printed IR shows only symbolic bounds.
  for (const auto& p : k.params()) {
    h.add(p.name);
    h.add(static_cast<std::uint64_t>(p.value));
  }
  h.add(to_string(k));
  return h.h;
}

}  // namespace a64fxcc::ir
