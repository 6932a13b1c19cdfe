#include "ir/printer.hpp"

#include <sstream>

namespace a64fxcc::ir {

namespace {

void print_expr(std::ostream& os, const Kernel& k, const Expr& e);

void print_access(std::ostream& os, const Kernel& k, const Access& a) {
  const auto& names = k.var_names();
  os << k.tensor(a.tensor).name;
  for (const auto& ix : a.index) {
    os << '[';
    os << ix.affine.to_string(names);
    if (ix.indirect) {
      os << " @ ";
      print_expr(os, k, *ix.indirect);
    }
    os << ']';
  }
}

void print_expr(std::ostream& os, const Kernel& k, const Expr& e) {
  switch (e.kind) {
    case ExprKind::Const: os << e.fconst; break;
    case ExprKind::Var: os << k.var_name(e.var); break;
    case ExprKind::Load: print_access(os, k, e.access); break;
    case ExprKind::Unary:
      os << to_string(e.un) << '(';
      print_expr(os, k, *e.a);
      os << ')';
      break;
    case ExprKind::Binary:
      if (e.bin == BinOp::Min || e.bin == BinOp::Max) {
        os << to_string(e.bin) << '(';
        print_expr(os, k, *e.a);
        os << ", ";
        print_expr(os, k, *e.b);
        os << ')';
      } else {
        os << '(';
        print_expr(os, k, *e.a);
        os << ' ' << to_string(e.bin) << ' ';
        print_expr(os, k, *e.b);
        os << ')';
      }
      break;
    case ExprKind::Select:
      os << "select(";
      print_expr(os, k, *e.a);
      os << ", ";
      print_expr(os, k, *e.b);
      os << ", ";
      print_expr(os, k, *e.c);
      os << ')';
      break;
  }
}

void print_node(std::ostream& os, const Kernel& k, const Node& n, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  if (n.is_stmt()) {
    os << pad;
    print_access(os, k, n.stmt.target);
    os << " = ";
    print_expr(os, k, *n.stmt.value);
    os << ";\n";
    return;
  }
  const Loop& l = n.loop;
  const auto& names = k.var_names();
  os << pad;
  if (l.annot.parallel) os << "#parallel ";
  if (l.annot.vector_width > 1) os << "#simd(" << l.annot.vector_width << ") ";
  if (l.annot.unroll > 1) os << "#unroll(" << l.annot.unroll << ") ";
  if (l.annot.prefetch_dist > 0) os << "#prefetch(" << l.annot.prefetch_dist << ") ";
  if (l.annot.pipelined) os << "#pipelined ";
  os << "for (" << k.var_name(l.var) << " = " << l.lower.to_string(names) << "; "
     << k.var_name(l.var) << " < ";
  if (l.upper2.has_value())
    os << "min(" << l.upper.to_string(names) << ", " << l.upper2->to_string(names)
       << ")";
  else
    os << l.upper.to_string(names);
  os << "; " << k.var_name(l.var);
  if (l.step == 1)
    os << "++";
  else
    os << " += " << l.step;
  os << ") {\n";
  for (const auto& child : l.body) print_node(os, k, *child, indent + 1);
  os << pad << "}\n";
}

}  // namespace

std::string to_string(const Kernel& k) {
  std::ostringstream os;
  os << "kernel " << k.name() << " [" << to_string(k.meta().language) << "]\n";
  for (const auto& p : k.params()) os << "  param " << p.name << " = " << p.value << "\n";
  const auto& names = k.var_names();
  for (const auto& t : k.tensors()) {
    os << "  tensor " << t.name << " : " << to_string(t.type);
    for (const auto& d : t.shape) os << '[' << d.to_string(names) << ']';
    os << (t.is_input ? "" : " (output-only)") << "\n";
  }
  for (const auto& r : k.roots()) print_node(os, k, *r, 1);
  return os.str();
}

std::string to_string(const Kernel& k, const Node& n, int indent) {
  std::ostringstream os;
  print_node(os, k, n, indent);
  return os.str();
}

std::string to_string(const Kernel& k, const Expr& e) {
  std::ostringstream os;
  print_expr(os, k, e);
  return os.str();
}

std::string to_string(const Kernel& k, const Access& a) {
  std::ostringstream os;
  print_access(os, k, a);
  return os.str();
}

}  // namespace a64fxcc::ir
