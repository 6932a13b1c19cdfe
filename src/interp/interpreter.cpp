#include "interp/interpreter.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "cache/fingerprint.hpp"

namespace a64fxcc::interp {

namespace {

/// Deterministic per-element default initializer.
double default_init(std::uint64_t seed, ir::TensorId t, std::size_t flat) {
  const std::uint64_t h = cache::mix64(
      seed ^ cache::mix64(static_cast<std::uint64_t>(t) * 0x10001 + flat));
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
}

}  // namespace

Interpreter::Interpreter(const ir::Kernel& kernel) : kernel_(&kernel) {
  env_ = kernel.param_env();
  const auto& tensors = kernel.tensors();
  buffers_.resize(tensors.size());
  dims_.resize(tensors.size());
  for (std::size_t t = 0; t < tensors.size(); ++t) {
    std::int64_t n = 1;
    for (const auto& d : tensors[t].shape) {
      const std::int64_t dv = d.evaluate(env_);
      if (dv <= 0)
        throw std::invalid_argument("tensor " + tensors[t].name +
                                    " has non-positive dimension");
      dims_[t].push_back(dv);
      n *= dv;
    }
    buffers_[t].assign(static_cast<std::size_t>(n), 0.0);
  }
  reset();
}

void Interpreter::reset(std::uint64_t seed) {
  const auto& tensors = kernel_->tensors();
  for (std::size_t t = 0; t < tensors.size(); ++t) {
    auto& buf = buffers_[t];
    if (!tensors[t].is_input) {
      std::fill(buf.begin(), buf.end(), 0.0);
      continue;
    }
    if (tensors[t].init) {
      // Custom initializer: decode flat index into a multi-index.
      const auto& dim = dims_[t];
      std::vector<std::int64_t> idx(dim.size(), 0);
      for (std::size_t flat = 0; flat < buf.size(); ++flat) {
        std::size_t rem = flat;
        for (std::size_t d = dim.size(); d-- > 0;) {
          idx[d] = static_cast<std::int64_t>(rem % static_cast<std::size_t>(dim[d]));
          rem /= static_cast<std::size_t>(dim[d]);
        }
        buf[flat] = tensors[t].init(idx, env_);
      }
    } else {
      for (std::size_t flat = 0; flat < buf.size(); ++flat)
        buf[flat] = default_init(seed, static_cast<ir::TensorId>(t), flat);
    }
  }
}

void Interpreter::run() {
  stmts_ = 0;
  for (const auto& r : kernel_->roots()) exec(*r);
}

std::span<const double> Interpreter::buffer(ir::TensorId t) const {
  assert(t >= 0 && static_cast<std::size_t>(t) < buffers_.size());
  return buffers_[static_cast<std::size_t>(t)];
}

std::span<double> Interpreter::buffer(ir::TensorId t) {
  assert(t >= 0 && static_cast<std::size_t>(t) < buffers_.size());
  return buffers_[static_cast<std::size_t>(t)];
}

double Interpreter::checksum() const {
  double s = 0.0;
  for (const auto& b : buffers_)
    for (double v : b) s += v;
  return s;
}

std::int64_t Interpreter::eval_index(const ir::Index& ix, std::size_t) {
  std::int64_t v = ix.affine.evaluate(env_);
  if (ix.indirect) v += static_cast<std::int64_t>(eval(*ix.indirect));
  return v;
}

std::size_t Interpreter::flat_offset(const ir::Access& a) {
  const auto t = static_cast<std::size_t>(a.tensor);
  const auto& dim = dims_[t];
  if (a.index.size() != dim.size())
    throw std::out_of_range("rank mismatch accessing " +
                            kernel_->tensor(a.tensor).name);
  std::size_t flat = 0;
  for (std::size_t d = 0; d < dim.size(); ++d) {
    const std::int64_t v = eval_index(a.index[d], d);
    if (v < 0 || v >= dim[d])
      throw std::out_of_range("index " + std::to_string(v) + " out of [0," +
                              std::to_string(dim[d]) + ") in dim " +
                              std::to_string(d) + " of " +
                              kernel_->tensor(a.tensor).name);
    flat = flat * static_cast<std::size_t>(dim[d]) + static_cast<std::size_t>(v);
  }
  return flat;
}

double Interpreter::eval(const ir::Expr& e) {
  using ir::BinOp;
  using ir::ExprKind;
  using ir::UnOp;
  switch (e.kind) {
    case ExprKind::Const: return e.fconst;
    case ExprKind::Var: return static_cast<double>(env_[static_cast<std::size_t>(e.var)]);
    case ExprKind::Load: {
      const std::size_t flat = flat_offset(e.access);
      if (hook_) hook_(e.access.tensor, flat, false);
      return buffers_[static_cast<std::size_t>(e.access.tensor)][flat];
    }
    case ExprKind::Unary: {
      const double x = eval(*e.a);
      switch (e.un) {
        case UnOp::Neg: return -x;
        case UnOp::Sqrt: return std::sqrt(x);
        case UnOp::Exp: return std::exp(x);
        case UnOp::Log: return std::log(x);
        case UnOp::Abs: return std::fabs(x);
        case UnOp::Sin: return std::sin(x);
        case UnOp::Cos: return std::cos(x);
        case UnOp::Floor: return std::floor(x);
        case UnOp::Recip: return 1.0 / x;
      }
      return 0.0;
    }
    case ExprKind::Binary: {
      const double x = eval(*e.a);
      const double y = eval(*e.b);
      switch (e.bin) {
        case BinOp::Add: return x + y;
        case BinOp::Sub: return x - y;
        case BinOp::Mul: return x * y;
        case BinOp::Div: return x / y;
        case BinOp::Min: return std::fmin(x, y);
        case BinOp::Max: return std::fmax(x, y);
        case BinOp::Mod: return std::fmod(x, y);
        case BinOp::Lt: return x < y ? 1.0 : 0.0;
      }
      return 0.0;
    }
    case ExprKind::Select: {
      return eval(*e.a) != 0.0 ? eval(*e.b) : eval(*e.c);
    }
  }
  return 0.0;
}

void Interpreter::exec(const ir::Node& n) {
  if (n.is_stmt()) {
    const double v = eval(*n.stmt.value);
    const std::size_t flat = flat_offset(n.stmt.target);
    if (hook_) hook_(n.stmt.target.tensor, flat, true);
    buffers_[static_cast<std::size_t>(n.stmt.target.tensor)][flat] = v;
    ++stmts_;
    return;
  }
  const ir::Loop& l = n.loop;
  const std::int64_t lo = l.lower.evaluate(env_);
  std::int64_t hi = l.upper.evaluate(env_);
  if (l.upper2.has_value()) hi = std::min(hi, l.upper2->evaluate(env_));
  auto& slot = env_[static_cast<std::size_t>(l.var)];
  const std::int64_t saved = slot;
  if (l.step > 0) {
    for (std::int64_t v = lo; v < hi; v += l.step) {
      slot = v;
      for (const auto& child : l.body) exec(*child);
    }
  } else {
    for (std::int64_t v = lo; v > hi; v += l.step) {
      slot = v;
      for (const auto& child : l.body) exec(*child);
    }
  }
  slot = saved;
}

bool equivalent(const ir::Kernel& a, const ir::Kernel& b, double rel_tol,
                double abs_tol, std::string* why, std::uint64_t seed) {
  if (a.tensors().size() != b.tensors().size()) {
    if (why) *why = "tensor count differs";
    return false;
  }
  Interpreter ia(a);
  Interpreter ib(b);
  ia.reset(seed);
  ib.reset(seed);
  ia.run();
  ib.run();
  for (const auto& t : a.tensors()) {
    const auto ba = ia.buffer(t.id);
    const auto bb = ib.buffer(t.id);
    if (ba.size() != bb.size()) {
      if (why) *why = "size of tensor " + t.name + " differs";
      return false;
    }
    for (std::size_t i = 0; i < ba.size(); ++i) {
      const double x = ba[i];
      const double y = bb[i];
      const double diff = std::fabs(x - y);
      const double scale = std::fmax(std::fabs(x), std::fabs(y));
      if (diff > abs_tol && diff > rel_tol * scale) {
        if (why)
          *why = "tensor " + t.name + " differs at flat index " +
                 std::to_string(i) + ": " + std::to_string(x) + " vs " +
                 std::to_string(y);
        return false;
      }
    }
  }
  return true;
}

}  // namespace a64fxcc::interp
