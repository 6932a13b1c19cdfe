#pragma once
// A Kernel: parameters, tensor declarations, and a forest of loop nests.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ir/node.hpp"

namespace a64fxcc::ir {

struct ParamDecl {
  VarId id = kInvalidVar;
  std::string name;
  std::int64_t value = 0;  ///< bound value used for evaluation / perf modelling
};

/// Deterministic initializer for one tensor element: receives the
/// element's multi-index and the kernel's variable environment (so it can
/// read bound parameter values, e.g. to produce valid indirect indices).
using TensorInitFn = std::function<double(std::span<const std::int64_t> idx,
                                          std::span<const std::int64_t> env)>;

struct TensorDecl {
  TensorId id = kInvalidTensor;
  std::string name;
  DataType type = DataType::F64;
  std::vector<AffineExpr> shape;  ///< affine in parameters only
  bool is_input = true;           ///< initialized before execution
  TensorInitFn init;              ///< optional custom initializer
};

/// How the kernel is parallelized (drives the runtime placement model).
enum class ParallelModel : std::uint8_t {
  Serial,      ///< single-threaded (PolyBench, SPEC int)
  OpenMP,      ///< threads across one node
  MpiOpenMP,   ///< ranks x threads across CMGs
};

struct KernelMeta {
  Language language = Language::C;
  ParallelModel parallel = ParallelModel::Serial;
  std::string suite;  ///< e.g. "polybench", "microkernel", ...
};

class Kernel {
 public:
  explicit Kernel(std::string name) : name_(std::move(name)) {}

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  Kernel(Kernel&&) = default;
  Kernel& operator=(Kernel&&) = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] VarId add_param(std::string name, std::int64_t value);
  [[nodiscard]] VarId add_loop_var(std::string name);
  [[nodiscard]] TensorId add_tensor(std::string name, DataType type,
                                    std::vector<AffineExpr> shape,
                                    bool is_input = true);

  void add_root(NodePtr n) { roots_.push_back(std::move(n)); }

  [[nodiscard]] const std::vector<ParamDecl>& params() const noexcept { return params_; }
  [[nodiscard]] const std::vector<TensorDecl>& tensors() const noexcept { return tensors_; }
  [[nodiscard]] std::vector<NodePtr>& roots() noexcept { return roots_; }
  [[nodiscard]] const std::vector<NodePtr>& roots() const noexcept { return roots_; }

  [[nodiscard]] int num_vars() const noexcept { return next_var_; }
  [[nodiscard]] const std::string& var_name(VarId v) const;
  /// Every variable's name, indexed by VarId.  Same lifetime rule as
  /// param_env().
  [[nodiscard]] const std::vector<std::string>& var_names() const noexcept {
    return var_names_;
  }
  [[nodiscard]] const TensorDecl& tensor(TensorId t) const;
  [[nodiscard]] std::optional<TensorId> find_tensor(std::string_view name) const;

  /// Environment with parameters bound to their declared values and loop
  /// variables zeroed; sized num_vars().  The kernel keeps it in step
  /// with add_param, add_loop_var and set_param, so reading it allocates
  /// nothing.  add_param and add_loop_var may reallocate it: never hold
  /// the reference across them.  Callers that bind loop variables copy
  /// it.
  [[nodiscard]] const std::vector<std::int64_t>& param_env() const noexcept {
    return env_;
  }

  /// Number of elements of tensor t under the bound parameter values.
  [[nodiscard]] std::int64_t tensor_elems(TensorId t) const;
  /// Total bytes across all tensors under the bound parameter values.
  [[nodiscard]] std::int64_t footprint_bytes() const;

  /// Rebind a parameter (e.g. to shrink problem sizes for testing).
  void set_param(std::string_view name, std::int64_t value);

  /// Attach a custom initializer to a tensor.
  void set_init(TensorId t, TensorInitFn fn);

  [[nodiscard]] KernelMeta& meta() noexcept { return meta_; }
  [[nodiscard]] const KernelMeta& meta() const noexcept { return meta_; }

  [[nodiscard]] Kernel clone() const;

 private:
  std::string name_;
  KernelMeta meta_;
  std::vector<ParamDecl> params_;
  std::vector<TensorDecl> tensors_;
  std::vector<NodePtr> roots_;
  std::vector<std::string> var_names_;
  std::vector<std::int64_t> env_;  ///< param_env(), sized num_vars()
  VarId next_var_ = 0;
};

}  // namespace a64fxcc::ir
