#include "ir/validate.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <sstream>

namespace a64fxcc::ir {

namespace {

using Checked = std::optional<std::int64_t>;  ///< nullopt: left int64

Checked add_checked(Checked a, Checked b) {
  std::int64_t r = 0;
  if (!a || !b || __builtin_add_overflow(*a, *b, &r)) return std::nullopt;
  return r;
}

Checked mul_checked(Checked a, Checked b) {
  std::int64_t r = 0;
  if (!a || !b || __builtin_mul_overflow(*a, *b, &r)) return std::nullopt;
  return r;
}

Checked max_checked(Checked a, Checked b) {
  if (!a || !b) return std::nullopt;
  return std::max(*a, *b);
}

Checked abs_checked(std::int64_t a) {
  if (a == std::numeric_limits<std::int64_t>::min()) return std::nullopt;
  return a < 0 ? -a : a;
}

class Validator {
 public:
  explicit Validator(const Kernel& k)
      : k_(k), magnitude_(static_cast<std::size_t>(k.num_vars()), 0) {
    for (const auto& p : k.params()) {
      params_.insert(p.id);
      magnitude_[static_cast<std::size_t>(p.id)] = abs_checked(p.value);
    }
  }

  std::vector<Diagnostic> run() {
    // Tensor declarations.  Every dimension, the element count and the
    // byte size must fit int64: tensor_elems and the analyses multiply
    // them unchecked.
    std::set<std::string> tensor_names;
    for (const auto& t : k_.tensors()) {
      if (!tensor_names.insert(t.name).second)
        error("duplicate tensor name '" + t.name + "'");
      Checked elems = 1;  // nullopt once a dimension is already reported
      for (std::size_t d = 0; d < t.shape.size(); ++d) {
        for (const auto& [v, c] : t.shape[d].terms()) {
          (void)c;
          if (!params_.count(v))
            error("tensor '" + t.name + "' dimension " + std::to_string(d) +
                  " uses a non-parameter variable");
        }
        const Checked size = evaluate(t.shape[d]);
        const std::string dim =
            "tensor '" + t.name + "' dimension " + std::to_string(d);
        if (!size) {
          error(dim + " overflows int64");
          elems.reset();
        } else if (*size <= 0) {
          error(dim + " evaluates to a non-positive size");
          elems.reset();
        } else if (elems) {
          elems = mul_checked(elems, size);
          if (!elems)
            error("tensor '" + t.name + "' element count overflows int64");
        }
      }
      const auto elem_bytes = static_cast<std::int64_t>(size_of(t.type));
      if (elems && !mul_checked(elems, elem_bytes))
        error("tensor '" + t.name + "' byte size overflows int64");
    }
    // Loop tree.
    for (const auto& r : k_.roots()) node(*r);
    // Dead outputs: output-only tensors that are never written.
    for (const auto& t : k_.tensors()) {
      if (!t.is_input && !written_.count(t.id))
        warn("output tensor '" + t.name + "' is never written");
    }
    return std::move(diags_);
  }

 private:
  void node(const Node& n) {
    if (n.is_stmt()) {
      stmt(n.stmt);
      return;
    }
    const Loop& l = n.loop;
    if (l.step == 0) error("loop has zero step");
    if (l.var < 0 || l.var >= k_.num_vars()) {
      error("loop variable id out of range");
      return;
    }
    if (params_.count(l.var))
      error("loop reuses parameter '" + k_.var_name(l.var) + "' as its variable");
    if (in_scope_.count(l.var))
      error("loop variable '" + k_.var_name(l.var) +
            "' shadows an enclosing loop");
    affine(l.lower, "loop bound");
    affine(l.upper, "loop bound");
    if (l.upper2.has_value()) affine(*l.upper2, "loop bound");
    // The trip-count rule evaluates the bounds with outer variables
    // anywhere in their ranges: their magnitude must fit int64.
    Checked m = max_checked(magnitude(l.lower), magnitude(l.upper));
    if (l.upper2.has_value()) m = max_checked(m, magnitude(*l.upper2));
    if (!m) error("loop '" + k_.var_name(l.var) + "' bounds overflow int64");
    magnitude_[static_cast<std::size_t>(l.var)] = m;
    if (l.annot.vector_width < 1 || l.annot.unroll < 1)
      error("loop annotation with non-positive factor");
    in_scope_.insert(l.var);
    for (const auto& c : l.body) node(*c);
    in_scope_.erase(l.var);
  }

  void stmt(const Stmt& s) {
    access(s.target, /*write=*/true);
    expr(*s.value);
  }

  void access(const Access& a, bool write) {
    if (a.tensor < 0 ||
        static_cast<std::size_t>(a.tensor) >= k_.tensors().size()) {
      error("access to undeclared tensor id " + std::to_string(a.tensor));
      return;
    }
    const auto& t = k_.tensor(a.tensor);
    if (a.index.size() != t.shape.size())
      error("tensor '" + t.name + "' accessed with " +
            std::to_string(a.index.size()) + " subscripts but has rank " +
            std::to_string(t.shape.size()));
    for (const auto& ix : a.index) {
      affine(ix.affine, "subscript of '" + t.name + "'");
      if (ix.indirect) expr(*ix.indirect);
    }
    if (write) written_.insert(a.tensor);
  }

  void expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::Var:
        if (!params_.count(e.var) && !in_scope_.count(e.var))
          error("expression uses variable '" + name_of(e.var) +
                "' outside its loop");
        break;
      case ExprKind::Load: access(e.access, /*write=*/false); break;
      default: break;
    }
    if (e.a) expr(*e.a);
    if (e.b) expr(*e.b);
    if (e.c) expr(*e.c);
  }

  void affine(const AffineExpr& a, const std::string& where) {
    for (const auto& [v, c] : a.terms()) {
      (void)c;
      if (!params_.count(v) && !in_scope_.count(v))
        error(where + " uses variable '" + name_of(v) +
              "' outside its loop");
    }
  }

  /// Value of `e` with parameters bound and loop variables at 0 (shapes
  /// read parameters only), computed without overflowing.
  Checked evaluate(const AffineExpr& e) const {
    const auto& env = k_.param_env();
    Checked r = e.constant_term();
    for (const auto& [v, c] : e.terms()) {
      const std::int64_t x = in_range(v) ? env[static_cast<std::size_t>(v)] : 0;
      r = add_checked(r, mul_checked(c, x));
    }
    return r;
  }

  /// |c0| + sum |c_v| * M(v): a bound on |e| over the whole iteration
  /// space.  M of a parameter is |value|; M of a loop variable is the
  /// largest magnitude of its loop's bounds.
  Checked magnitude(const AffineExpr& e) const {
    Checked m = abs_checked(e.constant_term());
    for (const auto& [v, c] : e.terms()) {
      const Checked mv =
          in_range(v) ? magnitude_[static_cast<std::size_t>(v)] : Checked(0);
      m = add_checked(m, mul_checked(abs_checked(c), mv));
    }
    return m;
  }

  bool in_range(VarId v) const { return v >= 0 && v < k_.num_vars(); }

  std::string name_of(VarId v) const {
    return in_range(v) ? k_.var_name(v) : "v" + std::to_string(v);
  }

  void error(std::string m) {
    diags_.push_back({Diagnostic::Severity::Error, std::move(m)});
  }
  void warn(std::string m) {
    diags_.push_back({Diagnostic::Severity::Warning, std::move(m)});
  }

  const Kernel& k_;
  /// M(v) per variable (see magnitude()); nullopt once it left int64.
  std::vector<Checked> magnitude_;
  std::set<VarId> params_;
  std::set<VarId> in_scope_;
  std::set<TensorId> written_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> validate(const Kernel& k) { return Validator(k).run(); }

bool is_valid(const Kernel& k) {
  for (const auto& d : validate(k))
    if (d.severity == Diagnostic::Severity::Error) return false;
  return true;
}

std::string to_string(const std::vector<Diagnostic>& ds) {
  std::ostringstream os;
  for (const auto& d : ds)
    os << (d.severity == Diagnostic::Severity::Error ? "error: " : "warning: ")
       << d.message << "\n";
  return os.str();
}

}  // namespace a64fxcc::ir
