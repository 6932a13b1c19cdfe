#pragma once
// What the cells of one benchmark row share while they are evaluated.
//
// All the reuse a study finds lies inside one benchmark row: the FJtrad
// reference compile that a library-heavy benchmark's cells all need for
// its vendor-library share, and the plans and placement evaluations of
// kernels that two compilers optimize alike.
// So a row is the unit of work in both runners — Study::run_suite runs
// one job per row, a `--procs` worker leases whole rows — and the loop
// that evaluates a row builds one RowMemo on its stack and hands it to
// Harness::run for each of the row's cells.  The memo dies with the
// row; the harness's "cells" map is the only memo that outlives one.
//
// Each lookup memoizes a pure function:
//
//   compile   per (compilers::fingerprint(spec), the benchmark's
//             content fingerprint, quirk mode): compilers::compile.  A
//             miss also stores ir::annotated_fingerprint of the
//             optimized kernel in CompileOutcome::kernel_fingerprint,
//             the half of the plan key it contributes.
//   plan      per perf::plan_fingerprint(kernel_fingerprint, machine):
//             perf::analyze.  Outcomes with equal annotated
//             fingerprints share one plan.
//   evaluate  per (plan fingerprint, perf::config_fingerprint(cfg,
//             prof)): perf::evaluate(plan, cfg, prof, false), the
//             scalar fields placement scoring reads.
//
// One thread owns a memo, so nothing here takes a lock.  Every lookup
// counts one hit or one miss into the cell's RunMetrics (the
// compile/plan/estimate_cache_* counters), so a cell's counters depend
// only on the cells evaluated before it in its row, never on which
// thread ran which row.  References returned stay valid for the memo's
// lifetime.

#include <cstdint>
#include <unordered_map>

#include "compilers/compiler_model.hpp"
#include "kernels/benchmark.hpp"
#include "perf/plan.hpp"
#include "runtime/outcome.hpp"

namespace a64fxcc::obs {
class Tracer;
}

namespace a64fxcc::runtime {

class RowMemo {
 public:
  /// compilers::compile of `bench`'s kernel under `spec`, compiling on
  /// first use.  Only the miss runs the pipeline: it adds the
  /// pipeline's analysis traffic to `metrics` and sends its
  /// "analysis:*" spans to `tracer` (may be null).
  const compilers::CompileOutcome& compile(const compilers::CompilerSpec& spec,
                                           const kernels::Benchmark& bench,
                                           bool apply_quirks,
                                           RunMetrics* metrics = nullptr,
                                           obs::Tracer* tracer = nullptr);

  /// perf::analyze of an ok outcome's kernel on `m`, keyed by the
  /// kernel fingerprint the outcome carries: `out` must come from
  /// compile().
  const perf::KernelPlan& plan(const compilers::CompileOutcome& out,
                               const machine::Machine& m,
                               RunMetrics* metrics = nullptr);

  /// perf::evaluate(plan, cfg, prof, /*want_detail=*/false).
  const perf::PerfResult& evaluate(const perf::KernelPlan& plan,
                                   const perf::ExecConfig& cfg,
                                   const perf::CodegenProfile& prof,
                                   RunMetrics* metrics = nullptr);

 private:
  struct CompileKey {
    std::uint64_t spec = 0;
    std::uint64_t kernel = 0;
    bool quirks = true;
    friend bool operator==(const CompileKey&, const CompileKey&) = default;
  };
  struct EvalKey {
    std::uint64_t plan = 0;
    std::uint64_t cfg = 0;
    friend bool operator==(const EvalKey&, const EvalKey&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const CompileKey& k) const noexcept;
    std::size_t operator()(const EvalKey& k) const noexcept;
  };

  std::unordered_map<CompileKey, compilers::CompileOutcome, KeyHash>
      compiles_;
  /// Keyed by the plan fingerprint, already a mixed 64-bit value.
  std::unordered_map<std::uint64_t, perf::KernelPlan> plans_;
  std::unordered_map<EvalKey, perf::PerfResult, KeyHash> evals_;
};

}  // namespace a64fxcc::runtime
