#include "ir/parser.hpp"

#include <cctype>
#include <map>
#include <optional>
#include <sstream>

#include "ir/builder.hpp"

namespace a64fxcc::ir {

namespace {

// ---- tokenizer -------------------------------------------------------------

enum class Tok : std::uint8_t {
  Ident, Number, String, LBracket, RBracket, LBrace, RBrace, LParen, RParen,
  Comma, Semi, Assign, PlusAssign, Plus, Minus, Star, Slash, DotDot, Eq,
  End
};

struct Token {
  Tok kind = Tok::End;
  std::string text;
  double num = 0;
  int line = 1, col = 1;
};

class Lexer {
 public:
  explicit Lexer(const std::string& s) : s_(s) { advance(); }

  [[nodiscard]] const Token& peek() const { return cur_; }
  Token next() {
    Token t = cur_;
    advance();
    return t;
  }
  [[nodiscard]] bool at(Tok k) const { return cur_.kind == k; }
  [[nodiscard]] bool at_ident(const char* w) const {
    return cur_.kind == Tok::Ident && cur_.text == w;
  }
  Token expect(Tok k, const char* what) {
    if (cur_.kind != k)
      throw ParseError(cur_.line, cur_.col,
                       std::string("expected ") + what + ", got '" +
                           (cur_.text.empty() ? "<end>" : cur_.text) + "'");
    return next();
  }

 private:
  void advance() {
    skip_ws();
    cur_ = Token{};
    cur_.line = line_;
    cur_.col = col_;
    if (pos_ >= s_.size()) {
      cur_.kind = Tok::End;
      return;
    }
    const char c = s_[pos_];
    if (c == '"') {
      take();
      std::string str;
      while (pos_ < s_.size() && s_[pos_] != '"') str.push_back(take());
      if (pos_ >= s_.size()) throw ParseError(line_, col_, "unterminated string");
      take();  // closing quote
      cur_.kind = Tok::String;
      cur_.text = std::move(str);
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string id;
      while (pos_ < s_.size() &&
             (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
              s_[pos_] == '_'))
        id.push_back(take());
      cur_.kind = Tok::Ident;
      cur_.text = std::move(id);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string num;
      while (pos_ < s_.size() &&
             (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
              s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
              ((s_[pos_] == '+' || s_[pos_] == '-') && !num.empty() &&
               (num.back() == 'e' || num.back() == 'E')))) {
        // ".." terminates a number (range operator).
        if (s_[pos_] == '.' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '.')
          break;
        num.push_back(take());
      }
      cur_.kind = Tok::Number;
      cur_.text = num;
      try {
        cur_.num = std::stod(num);
      } catch (const std::exception&) {
        // out_of_range ("1e99999") or a malformed exponent tail.
        throw ParseError(cur_.line, cur_.col,
                         "number out of range: '" + num + "'");
      }
      return;
    }
    switch (c) {
      case '[': one(Tok::LBracket); return;
      case ']': one(Tok::RBracket); return;
      case '{': one(Tok::LBrace); return;
      case '}': one(Tok::RBrace); return;
      case '(': one(Tok::LParen); return;
      case ')': one(Tok::RParen); return;
      case ',': one(Tok::Comma); return;
      case ';': one(Tok::Semi); return;
      case '*': one(Tok::Star); return;
      case '/': one(Tok::Slash); return;
      case '-': one(Tok::Minus); return;
      case '=':
        one(Tok::Assign);
        return;
      case '+':
        take();
        if (pos_ < s_.size() && s_[pos_] == '=') {
          take();
          cur_.kind = Tok::PlusAssign;
          cur_.text = "+=";
        } else {
          cur_.kind = Tok::Plus;
          cur_.text = "+";
        }
        return;
      case '.':
        take();
        if (pos_ < s_.size() && s_[pos_] == '.') {
          take();
          cur_.kind = Tok::DotDot;
          cur_.text = "..";
          return;
        }
        throw ParseError(line_, col_, "stray '.'");
      default:
        throw ParseError(line_, col_, std::string("unexpected character '") +
                                          c + "'");
    }
  }

  void one(Tok k) {
    cur_.kind = k;
    cur_.text = std::string(1, take());
  }

  char take() {
    const char c = s_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '#') {
        while (pos_ < s_.size() && s_[pos_] != '\n') take();
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        take();
      } else {
        break;
      }
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int line_ = 1, col_ = 1;
  Token cur_;
};

// ---- parser ----------------------------------------------------------------

/// Convert a lexed number to an integer, rejecting values the
/// double->int64 cast could not represent (that cast is UB out of
/// range, which is exactly what fuzzed inputs like `param N = 1e300`
/// would hit).
std::int64_t checked_int(const Token& t) {
  constexpr double kMax = 9223372036854775808.0;  // 2^63
  if (!(t.num >= -kMax && t.num < kMax))
    throw ParseError(t.line, t.col,
                     "integer value out of range: '" + t.text + "'");
  return static_cast<std::int64_t>(t.num);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : lex_(text) {}

  Kernel parse() {
    parse_header();
    while (!lex_.at(Tok::End)) {
      if (lex_.at_ident("param")) {
        parse_param();
      } else if (lex_.at_ident("tensor")) {
        parse_tensor();
      } else {
        parse_node();
      }
    }
    return std::move(*kb_).build();
  }

 private:
  void parse_header() {
    if (!lex_.at_ident("kernel"))
      throw err("kernel definition must start with 'kernel NAME'");
    lex_.next();
    if (!lex_.at(Tok::Ident) && !lex_.at(Tok::String))
      throw err("expected kernel name");
    const std::string name = lex_.next().text;
    if (name.empty()) throw err("kernel name must not be empty");
    KernelMeta meta;
    while (lex_.at(Tok::Ident) && !lex_.at_ident("param") &&
           !lex_.at_ident("tensor") && !lex_.at_ident("for") &&
           !lex_.at_ident("parfor")) {
      const std::string key = lex_.next().text;
      lex_.expect(Tok::Assign, "'=' after attribute");
      if (!lex_.at(Tok::Ident) && !lex_.at(Tok::String))
        throw err("expected attribute value");
      const std::string val = lex_.next().text;
      if (key == "lang") {
        if (val == "C") meta.language = Language::C;
        else if (val == "Cpp" || val == "cpp")
          meta.language = Language::Cpp;
        else if (val == "Fortran" || val == "fortran")
          meta.language = Language::Fortran;
        else throw err("unknown lang '" + val + "'");
      } else if (key == "parallel") {
        if (val == "serial") meta.parallel = ParallelModel::Serial;
        else if (val == "omp") meta.parallel = ParallelModel::OpenMP;
        else if (val == "mpiomp") meta.parallel = ParallelModel::MpiOpenMP;
        else throw err("unknown parallel model '" + val + "'");
      } else if (key == "suite") {
        meta.suite = val;
      } else {
        throw err("unknown kernel attribute '" + key + "'");
      }
    }
    kb_.emplace(name, meta);
  }

  void parse_param() {
    lex_.next();  // param
    const std::string name = lex_.expect(Tok::Ident, "parameter name").text;
    lex_.expect(Tok::Assign, "'='");
    bool neg = false;
    if (lex_.at(Tok::Minus)) {
      neg = true;
      lex_.next();
    }
    const auto v = lex_.expect(Tok::Number, "integer value");
    const auto value = checked_int(v) * (neg ? -1 : 1);
    vars_[name] = kb_->param(name, value);
  }

  void parse_tensor() {
    lex_.next();  // tensor
    const std::string name = lex_.expect(Tok::Ident, "tensor name").text;
    const std::string ty = lex_.expect(Tok::Ident, "element type").text;
    DataType type;
    if (ty == "f64") type = DataType::F64;
    else if (ty == "f32") type = DataType::F32;
    else if (ty == "i64") type = DataType::I64;
    else if (ty == "i32") type = DataType::I32;
    else throw err("unknown element type '" + ty + "'");

    std::vector<Ax> dims;
    while (lex_.at(Tok::LBracket)) {
      lex_.next();
      dims.push_back(Ax(parse_affine_only()));
      lex_.expect(Tok::RBracket, "']'");
    }
    bool output = false;
    if (lex_.at_ident("output")) {
      output = true;
      lex_.next();
    } else if (lex_.at_ident("input")) {
      lex_.next();
    }
    std::initializer_list<Ax> il = {};
    // initializer_list cannot be built dynamically; register via Kernel-
    // level API through the builder's tensor() overload by re-wrapping.
    (void)il;
    tensors_[name] = make_tensor(name, type, dims, !output);
  }

  TensorHandle make_tensor(const std::string& name, DataType type,
                           const std::vector<Ax>& dims, bool is_input) {
    // KernelBuilder::tensor takes an initializer_list; route around it by
    // using 0..4-ary dispatch (tensors in this IR are rank <= 4).
    switch (dims.size()) {
      case 0: return kb_->tensor(name, type, {}, is_input);
      case 1: return kb_->tensor(name, type, {dims[0]}, is_input);
      case 2: return kb_->tensor(name, type, {dims[0], dims[1]}, is_input);
      case 3:
        return kb_->tensor(name, type, {dims[0], dims[1], dims[2]}, is_input);
      case 4:
        return kb_->tensor(name, type, {dims[0], dims[1], dims[2], dims[3]},
                           is_input);
      default: throw err("tensors of rank > 4 are not supported");
    }
  }

  void parse_node() {
    const DepthGuard guard(*this);
    if (lex_.at_ident("ocl")) {
      parse_ocl();
      return;
    }
    if (lex_.at_ident("for") || lex_.at_ident("parfor")) {
      parse_loop();
      return;
    }
    parse_stmt();
  }

  /// `ocl [unroll=N] [prefetch=D] [simd]` immediately before a loop:
  /// Fujitsu Optimization Control Line hints attached to that loop.
  void parse_ocl() {
    lex_.next();  // ocl
    int unroll = 0, prefetch = 0;
    bool simd = false;
    while (lex_.at(Tok::Ident) && !lex_.at_ident("for") &&
           !lex_.at_ident("parfor")) {
      const std::string key = lex_.next().text;
      if (key == "simd") {
        simd = true;
        continue;
      }
      lex_.expect(Tok::Assign, "'=' after ocl hint");
      const Token vt = lex_.expect(Tok::Number, "hint value");
      const std::int64_t v64 = checked_int(vt);
      if (v64 < 0 || v64 > 1'000'000)
        throw ParseError(vt.line, vt.col, "ocl hint value out of range");
      const int v = static_cast<int>(v64);
      if (key == "unroll") unroll = v;
      else if (key == "prefetch") prefetch = v;
      else throw err("unknown ocl hint '" + key + "'");
    }
    if (!lex_.at_ident("for") && !lex_.at_ident("parfor"))
      throw err("ocl hints must be followed by a loop");
    parse_loop();
    kb_->annotate_last([&](Node& n) {
      if (!n.is_loop()) return;
      n.loop.annot.ocl_unroll = unroll;
      n.loop.annot.ocl_prefetch = prefetch;
      n.loop.annot.ocl_simd = simd;
    });
  }

  void parse_loop() {
    const bool parallel = lex_.at_ident("parfor");
    lex_.next();
    const std::string var = lex_.expect(Tok::Ident, "loop variable").text;
    if (vars_.count(var) || tensors_.count(var))
      throw err("loop variable '" + var + "' shadows an existing name");
    lex_.expect(Tok::Assign, "'='");
    AffineExpr lo = parse_affine_only();
    lex_.expect(Tok::DotDot, "'..'");
    AffineExpr hi = parse_affine_only();
    std::int64_t step = 1;
    if (lex_.at_ident("step")) {
      lex_.next();
      bool neg = false;
      if (lex_.at(Tok::Minus)) {
        neg = true;
        lex_.next();
      }
      step = checked_int(lex_.expect(Tok::Number, "step value")) *
             (neg ? -1 : 1);
      if (step == 0) throw err("step must be nonzero");
    }
    lex_.expect(Tok::LBrace, "'{'");
    const Sym v = kb_->var(var);
    vars_[var] = v;
    const auto body = [&] {
      while (!lex_.at(Tok::RBrace)) {
        if (lex_.at(Tok::End)) throw err("unterminated loop body");
        parse_node();
      }
    };
    if (parallel)
      kb_->ParallelFor(v, Ax(lo), Ax(hi), body, step);
    else
      kb_->For(v, Ax(lo), Ax(hi), body, step);
    lex_.expect(Tok::RBrace, "'}'");
    vars_.erase(var);
  }

  void parse_stmt() {
    const std::string name = lex_.expect(Tok::Ident, "tensor name").text;
    const auto it = tensors_.find(name);
    if (it == tensors_.end()) throw err("unknown tensor '" + name + "'");
    ARef target = parse_access(it->second);
    if (lex_.at(Tok::PlusAssign)) {
      lex_.next();
      E value = parse_expr();
      kb_->accum(std::move(target), std::move(value));
    } else {
      lex_.expect(Tok::Assign, "'=' or '+='");
      E value = parse_expr();
      kb_->assign(std::move(target), std::move(value));
    }
    lex_.expect(Tok::Semi, "';'");
  }

  /// Parse `[expr][expr]...` after a tensor name (possibly empty for 0-d).
  ARef parse_access(TensorHandle th) {
    ARef r;
    r.acc.tensor = th.id;
    while (lex_.at(Tok::LBracket)) {
      lex_.next();
      if (lex_.at(Tok::RBracket)) {  // "[]": explicit 0-d access
        lex_.next();
        continue;
      }
      r.acc.index.push_back(parse_index());
      lex_.expect(Tok::RBracket, "']'");
    }
    return r;
  }

  /// An index: affine where possible, otherwise indirect.
  Index parse_index() {
    E e = parse_expr();
    if (auto aff = to_affine(*e.p)) return Index(std::move(*aff));
    return Index(AffineExpr::constant(0), std::move(e.p));
  }

  /// Expression grammar: expr := term (('+'|'-') term)*
  ///                      term := factor (('*'|'/') factor)*
  ///                      factor := '-' factor | primary
  E parse_expr() {
    const DepthGuard guard(*this);
    E lhs = parse_term();
    while (lex_.at(Tok::Plus) || lex_.at(Tok::Minus)) {
      const bool add = lex_.next().kind == Tok::Plus;
      E rhs = parse_term();
      lhs = add ? std::move(lhs) + std::move(rhs)
                : std::move(lhs) - std::move(rhs);
    }
    return lhs;
  }

  E parse_term() {
    E lhs = parse_factor();
    while (lex_.at(Tok::Star) || lex_.at(Tok::Slash)) {
      const bool mul = lex_.next().kind == Tok::Star;
      E rhs = parse_factor();
      lhs = mul ? std::move(lhs) * std::move(rhs)
                : std::move(lhs) / std::move(rhs);
    }
    return lhs;
  }

  E parse_factor() {
    if (lex_.at(Tok::Minus)) {
      lex_.next();
      return -parse_factor();
    }
    return parse_primary();
  }

  E parse_primary() {
    if (lex_.at(Tok::Number)) return E(lex_.next().num);
    if (lex_.at(Tok::LParen)) {
      lex_.next();
      E e = parse_expr();
      lex_.expect(Tok::RParen, "')'");
      return e;
    }
    const Token t = lex_.expect(Tok::Ident, "identifier");
    // Call?
    if (lex_.at(Tok::LParen)) {
      lex_.next();
      std::vector<E> args;
      if (!lex_.at(Tok::RParen)) {
        args.push_back(parse_expr());
        while (lex_.at(Tok::Comma)) {
          lex_.next();
          args.push_back(parse_expr());
        }
      }
      lex_.expect(Tok::RParen, "')'");
      return make_call(t.text, std::move(args));
    }
    // Tensor access?
    if (const auto it = tensors_.find(t.text); it != tensors_.end())
      return E(parse_access(it->second));
    // Variable / parameter as a value.
    if (const auto it = vars_.find(t.text); it != vars_.end())
      return E(it->second);
    throw err("unknown identifier '" + t.text + "'");
  }

  E make_call(const std::string& fn, std::vector<E> args) {
    const auto need = [&](std::size_t n) {
      if (args.size() != n)
        throw err(fn + " takes " + std::to_string(n) + " argument(s)");
    };
    if (fn == "min") { need(2); return min(std::move(args[0]), std::move(args[1])); }
    if (fn == "max") { need(2); return max(std::move(args[0]), std::move(args[1])); }
    if (fn == "mod") { need(2); return mod(std::move(args[0]), std::move(args[1])); }
    if (fn == "lt") { need(2); return lt(std::move(args[0]), std::move(args[1])); }
    if (fn == "select") {
      need(3);
      return select(std::move(args[0]), std::move(args[1]), std::move(args[2]));
    }
    if (fn == "sqrt") { need(1); return sqrt(std::move(args[0])); }
    if (fn == "exp") { need(1); return exp(std::move(args[0])); }
    if (fn == "log") { need(1); return log(std::move(args[0])); }
    if (fn == "abs") { need(1); return abs(std::move(args[0])); }
    if (fn == "sin") { need(1); return sin(std::move(args[0])); }
    if (fn == "cos") { need(1); return cos(std::move(args[0])); }
    if (fn == "floor") { need(1); return floor(std::move(args[0])); }
    throw err("unknown function '" + fn + "'");
  }

  /// Parse an expression that must be affine (loop bounds, shapes).
  AffineExpr parse_affine_only() {
    E e = parse_expr();
    if (auto aff = to_affine(*e.p)) return *aff;
    throw err("expression must be affine in parameters/loop variables");
  }

  /// Convert an Expr tree to an AffineExpr when possible.
  std::optional<AffineExpr> to_affine(const Expr& e) {
    switch (e.kind) {
      case ExprKind::Const: {
        const double v = e.fconst;
        if (v != static_cast<double>(static_cast<std::int64_t>(v)))
          return std::nullopt;
        return AffineExpr::constant(static_cast<std::int64_t>(v));
      }
      case ExprKind::Var: return AffineExpr::var(e.var);
      case ExprKind::Binary: {
        const auto a = to_affine(*e.a);
        const auto b = to_affine(*e.b);
        if (!a || !b) return std::nullopt;
        switch (e.bin) {
          case BinOp::Add: return *a + *b;
          case BinOp::Sub: return *a - *b;
          case BinOp::Mul:
            if (a->is_constant()) return *b * a->constant_term();
            if (b->is_constant()) return *a * b->constant_term();
            return std::nullopt;
          default: return std::nullopt;
        }
      }
      case ExprKind::Unary:
        if (e.un == UnOp::Neg) {
          const auto a = to_affine(*e.a);
          if (!a) return std::nullopt;
          return *a * -1;
        }
        return std::nullopt;
      default: return std::nullopt;
    }
  }

  ParseError err(const std::string& msg) const {
    return ParseError(lex_.peek().line, lex_.peek().col, msg);
  }

  /// Bounds combined loop-nesting + expression recursion so fuzzed
  /// inputs like 10k nested parens raise a ParseError instead of
  /// overflowing the stack.
  struct DepthGuard {
    explicit DepthGuard(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxDepth) {
        --p_.depth_;
        throw p_.err("nesting too deep");
      }
    }
    ~DepthGuard() { --p_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& p_;
  };
  static constexpr int kMaxDepth = 200;

  Lexer lex_;
  std::optional<KernelBuilder> kb_;
  std::map<std::string, Sym> vars_;
  std::map<std::string, TensorHandle> tensors_;
  int depth_ = 0;
};

// ---- serializer ------------------------------------------------------------

void write_expr(std::ostream& os, const Kernel& k, const Expr& e);

void write_affine(std::ostream& os, const Kernel& k, const AffineExpr& a) {
  const auto& names = k.var_names();
  os << a.to_string(names);
}

void write_access(std::ostream& os, const Kernel& k, const Access& a) {
  os << k.tensor(a.tensor).name;
  if (a.index.empty()) os << "[]";
  for (const auto& ix : a.index) {
    os << '[';
    if (ix.indirect) {
      if (!(ix.affine == AffineExpr::constant(0))) {
        write_affine(os, k, ix.affine);
        os << " + ";
      }
      write_expr(os, k, *ix.indirect);
    } else {
      write_affine(os, k, ix.affine);
    }
    os << ']';
  }
}

void write_expr(std::ostream& os, const Kernel& k, const Expr& e) {
  switch (e.kind) {
    case ExprKind::Const: os << e.fconst; break;
    case ExprKind::Var: os << k.var_name(e.var); break;
    case ExprKind::Load: write_access(os, k, e.access); break;
    case ExprKind::Unary:
      if (e.un == UnOp::Neg) {
        os << "-(";
        write_expr(os, k, *e.a);
        os << ')';
      } else {
        os << to_string(e.un) << '(';
        write_expr(os, k, *e.a);
        os << ')';
      }
      break;
    case ExprKind::Binary:
      switch (e.bin) {
        case BinOp::Min:
        case BinOp::Max:
        case BinOp::Mod:
        case BinOp::Lt: {
          const char* fn = e.bin == BinOp::Min   ? "min"
                           : e.bin == BinOp::Max ? "max"
                           : e.bin == BinOp::Mod ? "mod"
                                                 : "lt";
          os << fn << '(';
          write_expr(os, k, *e.a);
          os << ", ";
          write_expr(os, k, *e.b);
          os << ')';
          break;
        }
        default:
          os << '(';
          write_expr(os, k, *e.a);
          os << ' ' << to_string(e.bin) << ' ';
          write_expr(os, k, *e.b);
          os << ')';
      }
      break;
    case ExprKind::Select:
      os << "select(";
      write_expr(os, k, *e.a);
      os << ", ";
      write_expr(os, k, *e.b);
      os << ", ";
      write_expr(os, k, *e.c);
      os << ')';
      break;
  }
}

void write_node(std::ostream& os, const Kernel& k, const Node& n, int depth) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  if (n.is_stmt()) {
    os << pad;
    write_access(os, k, n.stmt.target);
    os << " = ";
    write_expr(os, k, *n.stmt.value);
    os << ";\n";
    return;
  }
  const Loop& l = n.loop;
  if (l.annot.ocl_unroll > 0 || l.annot.ocl_prefetch > 0 || l.annot.ocl_simd) {
    os << pad << "ocl";
    if (l.annot.ocl_unroll > 0) os << " unroll=" << l.annot.ocl_unroll;
    if (l.annot.ocl_prefetch > 0) os << " prefetch=" << l.annot.ocl_prefetch;
    if (l.annot.ocl_simd) os << " simd";
    os << "\n";
  }
  os << pad << (l.annot.parallel ? "parfor " : "for ") << k.var_name(l.var)
     << " = ";
  write_affine(os, k, l.lower);
  os << " .. ";
  write_affine(os, k, l.upper);
  if (l.step != 1) os << " step " << l.step;
  os << " {\n";
  for (const auto& c : l.body) write_node(os, k, *c, depth + 1);
  os << pad << "}\n";
}

}  // namespace

Kernel parse_kernel(const std::string& text) {
  try {
    return Parser(text).parse();
  } catch (const ParseError&) {
    throw;
  } catch (const std::exception& e) {
    // Builder invariant violations (or any other library exception)
    // surface as a diagnostic too: malformed input must never escape as
    // an unclassified exception type.
    throw ParseError(0, 0, std::string("invalid kernel: ") + e.what());
  }
}

std::string serialize_kernel(const Kernel& k) {
  std::ostringstream os;
  os << "kernel \"" << k.name() << '"';
  os << " lang=" << (k.meta().language == Language::C     ? "C"
                     : k.meta().language == Language::Cpp ? "Cpp"
                                                          : "Fortran");
  os << " parallel="
     << (k.meta().parallel == ParallelModel::Serial   ? "serial"
         : k.meta().parallel == ParallelModel::OpenMP ? "omp"
                                                      : "mpiomp");
  if (!k.meta().suite.empty()) os << " suite=\"" << k.meta().suite << '"';
  os << "\n";
  for (const auto& p : k.params())
    os << "param " << p.name << " = " << p.value << "\n";
  const auto& names = k.var_names();
  for (const auto& t : k.tensors()) {
    os << "tensor " << t.name << " " << to_string(t.type);
    for (const auto& d : t.shape) os << "[" << d.to_string(names) << "]";
    os << (t.is_input ? "" : " output") << "\n";
  }
  for (const auto& r : k.roots()) write_node(os, k, *r, 0);
  return os.str();
}

}  // namespace a64fxcc::ir
