#include "ir/kernel.hpp"

#include <cassert>
#include <stdexcept>

namespace a64fxcc::ir {

VarId Kernel::add_param(std::string name, std::int64_t value) {
  const VarId id = next_var_++;
  params_.push_back({id, name, value});
  var_names_.push_back(std::move(name));
  env_.push_back(value);
  return id;
}

VarId Kernel::add_loop_var(std::string name) {
  const VarId id = next_var_++;
  var_names_.push_back(std::move(name));
  env_.push_back(0);
  return id;
}

TensorId Kernel::add_tensor(std::string name, DataType type,
                            std::vector<AffineExpr> shape, bool is_input) {
  const TensorId id = static_cast<TensorId>(tensors_.size());
  tensors_.push_back({id, std::move(name), type, std::move(shape), is_input, {}});
  return id;
}

const std::string& Kernel::var_name(VarId v) const {
  assert(v >= 0 && static_cast<std::size_t>(v) < var_names_.size());
  return var_names_[static_cast<std::size_t>(v)];
}

const TensorDecl& Kernel::tensor(TensorId t) const {
  assert(t >= 0 && static_cast<std::size_t>(t) < tensors_.size());
  return tensors_[static_cast<std::size_t>(t)];
}

std::optional<TensorId> Kernel::find_tensor(std::string_view name) const {
  for (const auto& t : tensors_)
    if (t.name == name) return t.id;
  return std::nullopt;
}

std::int64_t Kernel::tensor_elems(TensorId t) const {
  std::int64_t n = 1;
  for (const auto& d : tensor(t).shape) n *= d.evaluate(env_);
  return n;
}

std::int64_t Kernel::footprint_bytes() const {
  std::int64_t total = 0;
  for (const auto& t : tensors_)
    total += tensor_elems(t.id) * static_cast<std::int64_t>(size_of(t.type));
  return total;
}

void Kernel::set_init(TensorId t, TensorInitFn fn) {
  assert(t >= 0 && static_cast<std::size_t>(t) < tensors_.size());
  tensors_[static_cast<std::size_t>(t)].init = std::move(fn);
}

void Kernel::set_param(std::string_view name, std::int64_t value) {
  for (auto& p : params_) {
    if (p.name == name) {
      p.value = value;
      env_[static_cast<std::size_t>(p.id)] = value;
      return;
    }
  }
  throw std::invalid_argument("no such parameter: " + std::string(name));
}

Kernel Kernel::clone() const {
  Kernel k(name_);
  k.meta_ = meta_;
  k.params_ = params_;
  k.tensors_ = tensors_;
  k.var_names_ = var_names_;
  k.env_ = env_;
  k.next_var_ = next_var_;
  k.roots_.reserve(roots_.size());
  for (const auto& r : roots_) k.roots_.push_back(r->clone());
  return k;
}

}  // namespace a64fxcc::ir
