#pragma once
// Plan/evaluate split of the performance model.
//
// perf::estimate used to redo the full per-access residency analysis
// (statement contexts, access classification, footprint/fit-depth and
// trip-count derivations) on every call — although none of it depends
// on the execution configuration.  The exploration phase evaluates up
// to ~40 placements per (benchmark x compiler) cell, so the same
// analysis ran ~40 times per cell.  Following the ECM-modeling
// discipline (Alappat et al.: build the machine-level traffic/work
// characterization once, evaluate per configuration cheaply), the model
// is split in two:
//
//   analyze(kernel, machine)  -> KernelPlan   (all placement-invariant
//                                              tables, built once)
//   evaluate(plan, cfg, prof) -> PerfResult   (cheap per-placement
//                                              reduction over the plan)
//
// The split is exact, not approximate: estimate() is implemented as
// evaluate(analyze(k, m), cfg, prof), both paths share this code, and
// every arithmetic operation happens on the same values in the same
// order as the pre-split model — results are bit-identical (asserted
// across the kernel suite by test_perf_plan).
//
// The capacity-dependent part of the residency analysis (which cache
// level an access's working set fits at) is kept symbolic: the plan
// stores the per-depth footprint/trip/stride tables and evaluate()
// replays only the threshold comparisons and multiplications against
// the concrete per-thread L2 share of a placement.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/access.hpp"
#include "ir/kernel.hpp"
#include "machine/machine.hpp"
#include "perf/perf_model.hpp"

namespace a64fxcc::perf {

/// Placement-invariant residency tables of one deduplicated access:
/// everything the traffic model needs with the cache capacity left
/// symbolic.  All vectors are indexed by loop depth (outermost first)
/// over the owning statement's chain of `depth` enclosing loops.
struct AccessPlan {
  analysis::PatternKind kind = analysis::PatternKind::Invariant;
  bool affine = true;
  double elem_size = 8;
  /// Cache lines the whole tensor occupies (>= 1).
  double tensor_lines = 1;
  /// |linearized stride| * elem_size w.r.t. the innermost loop variable
  /// (0 for indirect accesses) — the hardware-prefetchability feature.
  double stride_bytes = 0;
  /// footprint_lines of the subchain starting at depth l, l = 0..depth
  /// (depth+1 entries; entry [depth] is a single iteration's footprint).
  std::vector<double> footprint;
  /// Per depth: does the access move with that loop?  (Non-affine
  /// accesses conservatively vary with every loop.)
  std::vector<char> varies;
  /// |linear stride w.r.t. chain[d]'s variable| * elem_size per depth
  /// (affine accesses only; 0 otherwise) — the line-share amortization
  /// factor for sub-line strides.
  std::vector<double> depth_stride_bytes;
  /// Line traffic past the (placement-invariant) per-core L1.
  double l1_lines = 0;
};

/// Placement-invariant characterization of one statement.
struct StmtPlan {
  std::string loop_var;       ///< innermost loop variable name
  analysis::OpMix ops;        ///< per-execution operation mix
  double iters = 1;           ///< total executions of the statement
  /// Trip counts of the enclosing loops, outermost first (the
  /// statement's analysis::StmtStats::trip).
  std::vector<double> trip;
  bool has_parallel = false;  ///< any enclosing loop is parallel
  double par_trip = 0;        ///< trip count of the parallel loop
  // Innermost-loop codegen annotations (placement-invariant).
  int vector_width = 1;
  int unroll = 1;
  bool pipelined = false;
  bool sw_prefetch = false;
  std::vector<AccessPlan> accesses;
};

/// Immutable product of analyze(): every placement-invariant result of
/// the performance model for one (kernel, machine) pair.  Shared freely
/// across threads; evaluate() never mutates it.
struct KernelPlan {
  machine::Machine machine;
  ir::ParallelModel parallel = ir::ParallelModel::Serial;
  /// Total executions of all distinct parallel loops (the fork/barrier
  /// count driving threading-runtime overheads).
  double parallel_execs = 0;
  std::vector<StmtPlan> stmts;
  /// Stable identity of (annotated kernel IR + bound parameters,
  /// machine) — the plan key, and the half of an evaluation key
  /// contributed by this plan (plan_fingerprint).
  std::uint64_t fingerprint = 0;
};

/// Build the placement-invariant plan: one pass of statement collection,
/// access classification and footprint/trip analysis per (kernel,
/// machine).  This is the expensive half of the old estimate().  Keys
/// the plan by ir::annotated_fingerprint(k), a tree walk that prints
/// nothing — the key runtime::RowMemo stores on each outcome, so this
/// oracle path and the memoized path agree.
[[nodiscard]] KernelPlan analyze(const ir::Kernel& k,
                                 const machine::Machine& m);

/// Same plan, with its fingerprint precomputed: `fingerprint` must be
/// plan_fingerprint(ir::annotated_fingerprint(k), m).  The row memo's
/// miss path passes its key here, so no lookup walks the kernel.
[[nodiscard]] KernelPlan analyze(const ir::Kernel& k,
                                 const machine::Machine& m,
                                 std::uint64_t fingerprint);

/// Reduce a plan to a PerfResult for one execution configuration.  Cheap:
/// arithmetic over the plan's tables only — no IR traversal, no
/// footprint recomputation.  evaluate(analyze(k, m), cfg, prof) is
/// bit-identical to estimate(k, m, cfg, prof).
///
/// `want_detail = false` skips materializing the per-statement
/// breakdown: every scalar field of the returned PerfResult (seconds,
/// joules, bottleneck, flops, bytes, overhead) is bit-identical to the
/// detailed result, but `detail` stays empty.  Placement scoring — the
/// harness ranking dozens of candidate placements by `seconds` — runs in
/// this mode; callers that render per-statement tables keep the default.
[[nodiscard]] PerfResult evaluate(const KernelPlan& plan,
                                  const ExecConfig& cfg,
                                  const CodegenProfile& prof = {},
                                  bool want_detail = true);

/// Stable fingerprint of (kernel, machine model) — what analyze() stores
/// into KernelPlan::fingerprint.  `kernel_fp` is the kernel's
/// ir::annotated_fingerprint (IR + annotations + bound parameters +
/// metadata).  Never persisted, so its values may change between builds.
[[nodiscard]] std::uint64_t plan_fingerprint(std::uint64_t kernel_fp,
                                             const machine::Machine& m);

/// Stable fingerprint of one evaluation configuration (placement-derived
/// fields + codegen profile) — the other half of an evaluation key.
[[nodiscard]] std::uint64_t config_fingerprint(const ExecConfig& cfg,
                                               const CodegenProfile& prof);

}  // namespace a64fxcc::perf
