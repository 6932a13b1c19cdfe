#include "codegen/codegen_c.hpp"

#include <cinttypes>
#include <sstream>

#include "interp/interpreter.hpp"

namespace a64fxcc::ir {

namespace {

/// C-safe identifier (kernel/tensor names may contain '-', '.', etc.).
std::string sanitize(const std::string& s) {
  std::string out;
  for (const char c : s)
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
    out.insert(out.begin(), 'k');
  return out;
}

/// Tensor identifiers get a prefix so they can never collide with libc
/// symbols (libm declares y0/y1/j0/j1/gamma/...).
std::string tensor_id(const std::string& s) { return "t_" + sanitize(s); }

class Emitter {
 public:
  Emitter(const Kernel& k, const CodegenCOptions& opt) : k_(k), opt_(opt) {}

  std::string run() {
    prologue();
    tensors();
    init();
    kernel_fn();
    main_fn();
    return os_.str();
  }

 private:
  void prologue() {
    os_ << "/* Generated by a64fxcc from kernel '" << k_.name() << "' ("
        << to_string(k_.meta().language) << ", suite '" << k_.meta().suite
        << "').\n"
        << " * Compile: cc -O2 -fopenmp -lm this_file.c */\n"
        << "#include <stdint.h>\n#include <stdio.h>\n#include <math.h>\n";
    if (opt_.timing) os_ << "#include <time.h>\n";
    os_ << "\n";
    for (const auto& p : k_.params())
      os_ << "#define " << p.name << " " << p.value << "L\n";
    os_ << "\n";
  }

  void tensors() {
    const auto& names = k_.var_names();
    for (const auto& t : k_.tensors()) {
      os_ << "static double " << tensor_id(t.name);
      if (t.shape.empty()) {
        os_ << "[1]";
      } else {
        for (const auto& d : t.shape) os_ << "[" << d.to_string(names) << "]";
      }
      os_ << ";\n";
    }
    os_ << "\n";
  }

  void init() {
    os_ << "static uint64_t mix(uint64_t x) {\n"
        << "  x += 0x9e3779b97f4a7c15ULL;\n"
        << "  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;\n"
        << "  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;\n"
        << "  return x ^ (x >> 31);\n}\n\n";
    os_ << "static void init_tensors(void) {\n";
    if (opt_.embed_init) {
      // Run the interpreter's reset to capture the exact initial state.
      interp::Interpreter in(k_);
      for (const auto& t : k_.tensors()) {
        if (!t.is_input) continue;  // outputs are zero (static storage)
        const auto buf = in.buffer(t.id);
        const std::string n = sanitize(t.name);
        os_ << "  { static const double v[" << buf.size() << "] = {";
        for (std::size_t e = 0; e < buf.size(); ++e) {
          char num[40];
          std::snprintf(num, sizeof num, "%.17g", buf[e]);
          os_ << num << (e + 1 < buf.size() ? "," : "");
          if (e % 8 == 7) os_ << "\n      ";
        }
        os_ << "};\n    double* cg_dst = &" << flat_lvalue(t) << ";\n"
            << "    for (int64_t cg_e = 0; cg_e < " << buf.size()
            << "; ++cg_e) cg_dst[cg_e] = v[cg_e]; }\n";
      }
    } else {
      for (const auto& t : k_.tensors()) {
        if (!t.is_input) continue;
        const std::string n = sanitize(t.name);
        os_ << "  { double* cg_dst = &" << flat_lvalue(t) << ";\n"
            << "    for (int64_t cg_e = 0; cg_e < " << k_.tensor_elems(t.id)
            << "; ++cg_e)\n"
            << "      cg_dst[cg_e] = (double)(mix(mix((uint64_t)" << t.id
            << " * 0x10001 + (uint64_t)cg_e)) >> 11) * (1.0/9007199254740992.0); }\n";
      }
    }
    os_ << "}\n\n";
  }

  std::string flat_lvalue(const TensorDecl& t) {
    std::string s = tensor_id(t.name);
    const std::size_t rank = t.shape.empty() ? 1 : t.shape.size();
    for (std::size_t d = 0; d < rank; ++d) s += "[0]";
    return s;
  }

  void kernel_fn() {
    os_ << "static void kernel_" << sanitize(k_.name()) << "(void) {\n";
    for (const auto& r : k_.roots()) node(*r, 1);
    os_ << "}\n\n";
  }

  void node(const Node& n, int depth) {
    const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    if (n.is_stmt()) {
      os_ << pad;
      access(n.stmt.target);
      os_ << " = ";
      expr(*n.stmt.value);
      os_ << ";\n";
      return;
    }
    const Loop& l = n.loop;
    const auto& names = k_.var_names();
    const std::string v = k_.var_name(l.var);
    // GCC does not compose `#pragma GCC unroll` with OpenMP pragmas (both
    // demand to sit immediately before the loop), so OpenMP wins and the
    // unroll hint is dropped in that case.
    const bool omp = l.annot.parallel || l.annot.vector_width > 1;
    if (l.annot.unroll > 1 && !omp)
      os_ << pad << "#pragma GCC unroll " << l.annot.unroll << "\n";
    if (l.annot.parallel) os_ << pad << "#pragma omp parallel for\n";
    if (l.annot.vector_width > 1 && !l.annot.parallel)
      os_ << pad << "#pragma omp simd\n";
    const char* cmp = l.step > 0 ? " < " : " > ";
    os_ << pad << "for (int64_t " << v << " = " << l.lower.to_string(names)
        << "; " << v << cmp;
    if (l.upper2.has_value()) {
      os_ << "(" << l.upper.to_string(names) << " < "
          << l.upper2->to_string(names) << " ? " << l.upper.to_string(names)
          << " : " << l.upper2->to_string(names) << ")";
    } else {
      os_ << l.upper.to_string(names);
    }
    os_ << "; " << v << " += " << l.step << ") {\n";
    for (const auto& c : l.body) node(*c, depth + 1);
    os_ << pad << "}\n";
  }

  void access(const Access& a) {
    const auto& names = k_.var_names();
    os_ << tensor_id(k_.tensor(a.tensor).name);
    if (a.index.empty()) {
      os_ << "[0]";
      return;
    }
    for (const auto& ix : a.index) {
      os_ << "[";
      if (ix.indirect) {
        os_ << "(int64_t)(";
        if (!(ix.affine == AffineExpr::constant(0)))
          os_ << ix.affine.to_string(names) << " + ";
        expr(*ix.indirect);
        os_ << ")";
      } else {
        os_ << ix.affine.to_string(names);
      }
      os_ << "]";
    }
  }

  void expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::Const: {
        char num[40];
        std::snprintf(num, sizeof num, "%.17g", e.fconst);
        os_ << num;
        break;
      }
      case ExprKind::Var: os_ << "(double)" << k_.var_name(e.var); break;
      case ExprKind::Load: access(e.access); break;
      case ExprKind::Unary: {
        const char* fn = nullptr;
        switch (e.un) {
          case UnOp::Neg: fn = nullptr; break;
          case UnOp::Sqrt: fn = "sqrt"; break;
          case UnOp::Exp: fn = "exp"; break;
          case UnOp::Log: fn = "log"; break;
          case UnOp::Abs: fn = "fabs"; break;
          case UnOp::Sin: fn = "sin"; break;
          case UnOp::Cos: fn = "cos"; break;
          case UnOp::Floor: fn = "floor"; break;
          case UnOp::Recip: fn = nullptr; break;
        }
        if (e.un == UnOp::Neg) {
          os_ << "-(";
          expr(*e.a);
          os_ << ")";
        } else if (e.un == UnOp::Recip) {
          os_ << "(1.0 / (";
          expr(*e.a);
          os_ << "))";
        } else {
          os_ << fn << "(";
          expr(*e.a);
          os_ << ")";
        }
        break;
      }
      case ExprKind::Binary: {
        switch (e.bin) {
          case BinOp::Min:
          case BinOp::Max:
          case BinOp::Mod: {
            const char* fn = e.bin == BinOp::Min   ? "fmin"
                             : e.bin == BinOp::Max ? "fmax"
                                                   : "fmod";
            os_ << fn << "(";
            expr(*e.a);
            os_ << ", ";
            expr(*e.b);
            os_ << ")";
            break;
          }
          case BinOp::Lt:
            os_ << "((";
            expr(*e.a);
            os_ << ") < (";
            expr(*e.b);
            os_ << ") ? 1.0 : 0.0)";
            break;
          default: {
            const char op = e.bin == BinOp::Add   ? '+'
                            : e.bin == BinOp::Sub ? '-'
                            : e.bin == BinOp::Mul ? '*'
                                                  : '/';
            os_ << "(";
            expr(*e.a);
            os_ << " " << op << " ";
            expr(*e.b);
            os_ << ")";
            break;
          }
        }
        break;
      }
      case ExprKind::Select:
        os_ << "((";
        expr(*e.a);
        os_ << ") != 0.0 ? (";
        expr(*e.b);
        os_ << ") : (";
        expr(*e.c);
        os_ << "))";
        break;
    }
  }

  void main_fn() {
    os_ << "int main(void) {\n  init_tensors();\n";
    if (opt_.timing)
      os_ << "  struct timespec t0, t1;\n"
          << "  clock_gettime(CLOCK_MONOTONIC, &t0);\n";
    os_ << "  kernel_" << sanitize(k_.name()) << "();\n";
    if (opt_.timing)
      os_ << "  clock_gettime(CLOCK_MONOTONIC, &t1);\n"
          << "  fprintf(stderr, \"time_s %.9f\\n\",\n"
          << "          (double)(t1.tv_sec - t0.tv_sec) +\n"
          << "          1e-9 * (double)(t1.tv_nsec - t0.tv_nsec));\n";
    os_ << "  double cg_sum = 0.0;\n";
    for (const auto& t : k_.tensors()) {
      const std::string n = sanitize(t.name);
      os_ << "  { const double* cg_src = &" << flat_lvalue(t)
          << "; double cg_s = 0.0;\n    for (int64_t cg_e = 0; cg_e < "
          << k_.tensor_elems(t.id) << "; ++cg_e) cg_s += cg_src[cg_e];\n";
      if (opt_.per_tensor_checksums)
        os_ << "    printf(\"" << n << " %.17g\\n\", cg_s);\n";
      os_ << "    cg_sum += cg_s; }\n";
    }
    os_ << "  printf(\"checksum %.17g\\n\", cg_sum);\n  return 0;\n}\n";
  }

  const Kernel& k_;
  const CodegenCOptions& opt_;
  std::ostringstream os_;
};

}  // namespace

std::string emit_c(const Kernel& k, const CodegenCOptions& opt) {
  return Emitter(k, opt).run();
}

}  // namespace a64fxcc::ir
