#pragma once
// Models of the five compiler environments the paper evaluates on A64FX
// (Sec. 2.1) plus Intel's icc for the Figure-1 Xeon reference:
//
//   FJtrad    — Fujitsu Technical Computing Suite 4.5.0, traditional mode,
//               -Kfast,ocl,largepage,lto.  Co-designed for Fugaku: superb
//               Fortran front end, software pipelining, tuned OpenMP
//               runtime; but no loop interchange on C loop nests (the
//               documented 2mm failure) and weak integer code.
//   FJclang   — same suite, clang mode (LLVM 7 based).
//   LLVM      — LLVM 12, -Ofast -ffast-math -flto=thin (frt for Fortran).
//   LLVMPolly — LLVM 12 + -mllvm -polly (polyhedral scheduling), full LTO.
//   GNU       — GCC 10.2, -O3 -march=native -flto (NOTE: no -ffast-math,
//               so no reduction vectorization; young SVE backend; best
//               integer/scalar optimizer; slow libgomp barriers).
//   ICC       — Intel compiler on the Xeon reference (aggressive
//               interchange + vectorization; default fast FP model).
//
// A compiler model = a pass pipeline over the IR + codegen-quality
// factors + a quirk database for paper-documented bugs.  Everything a
// model does is inspectable: `compile()` returns the transformed kernel
// and a log of the decisions taken.

#include <optional>
#include <string>
#include <vector>

#include "ir/kernel.hpp"
#include "passes/passes.hpp"
#include "perf/perf_model.hpp"

namespace a64fxcc::compilers {

enum class CompilerId : std::uint8_t { FJtrad, FJclang, LLVM, LLVMPolly, GNU, ICC };

[[nodiscard]] std::string to_string(CompilerId id);

/// Data-driven description of one compiler environment.  Using a plain
/// struct (rather than a class hierarchy) keeps the models comparable,
/// unit-testable knob by knob, and lets the ablation benches switch
/// individual capabilities off.
struct CompilerSpec {
  CompilerId id = CompilerId::FJtrad;
  std::string name;
  std::string flags;  ///< the real-world flag string being modelled

  // ---- pass pipeline ----
  bool distribute = false;              ///< loop distribution (fission) first —
                                        ///< what unlocks interchange on the
                                        ///< classic imperfect gemm nest
  bool interchange = false;             ///< run locality interchange
  bool interchange_aggressive = false;  ///< low profitability threshold
  bool use_polly = false;               ///< polyhedral driver on SCoPs
  bool fuse = false;                    ///< loop fusion
  int unroll = 1;
  int prefetch_dist = 0;      ///< software prefetch distance (0 = none)
  bool pipeline = false;      ///< software pipelining (FJ trad)
  bool do_vectorize = true;
  passes::VectorizeOptions vec;
  std::int64_t polly_tile = 32;

  // ---- codegen quality (multipliers on core cycles; >1 is worse) ----
  double fp_core_factor = 1.0;
  double int_core_factor = 1.0;
  double fortran_factor = 1.0;
  double c_factor = 1.0;
  double cpp_factor = 1.0;
  double vec_efficiency = 1.0;
  /// Per-language vectorizer quality (negative = inherit vec_efficiency).
  /// Models Fujitsu trad mode, whose SVE vectorizer is co-designed for
  /// Fortran, fires only weakly on plain C, and not at all on template
  /// C++ — the paper's conclusion ("Fujitsu for Fortran codes ... any
  /// clang-based compilers for C/C++").
  double c_vec_efficiency = -1.0;
  double cpp_vec_efficiency = -1.0;
  double omp_barrier_factor = 1.0;

  [[nodiscard]] double vec_efficiency_for(ir::Language l) const {
    switch (l) {
      case ir::Language::C:
        return c_vec_efficiency >= 0 ? c_vec_efficiency : vec_efficiency;
      case ir::Language::Cpp:
        return cpp_vec_efficiency >= 0 ? cpp_vec_efficiency : vec_efficiency;
      case ir::Language::Fortran: return vec_efficiency;
    }
    return vec_efficiency;
  }

  // ---- front-end routing ----
  /// True when this environment compiles Fortran through Fujitsu's frt
  /// (the paper's LLVM setup): the pass pipeline and factors of FJtrad
  /// apply, with a small LTO bonus.
  bool fortran_via_frt = false;
  /// Honor source-level OCL hints (the "ocl" in -Kfast,ocl,largepage,lto).
  /// Only the Fujitsu environments act on them; others ignore the lines.
  bool honor_ocl = false;
};

/// Stable fingerprint of every pipeline/codegen knob of a spec: the
/// compiler half of core::Journal::cell_key and of the harness's cell
/// and compile keys (the kernel half is ir::content_fingerprint).
/// Persisted through the journal key, so its values must never drift.
[[nodiscard]] std::uint64_t fingerprint(const CompilerSpec& spec);

struct CompileOutcome {
  enum class Status : std::uint8_t { Ok, CompileError, RuntimeError };
  Status status = Status::Ok;
  std::optional<ir::Kernel> kernel;  ///< transformed kernel (Ok only)
  perf::CodegenProfile profile;      ///< quality knobs for the perf model
  /// Extra multiplier on predicted runtime from quirks (pathological
  /// codegen documented in the paper); 1.0 normally.
  double time_multiplier = 1.0;
  /// Structured failure reason (the quirk DB's paper citation) when
  /// status != Ok — the cell taxonomy consumes this instead of grepping
  /// the free-form log.  Empty on success.
  std::string diagnostic;
  std::string log;
  /// Pass-decision provenance: one fired/blocked record per pass the
  /// pipeline consulted, in pipeline order.  The canonical paper passes
  /// (interchange, tile, vectorize, fuse, polly) always appear — with a
  /// "pass not enabled" reason when the environment lacks them — so
  /// `a64fxcc explain` can diff any two compilers column by column.
  /// Pure function of (spec, kernel, quirks): cached with the outcome.
  std::vector<passes::Decision> decisions;
  /// Analysis-manager traffic of the pipeline run that produced this
  /// outcome: a pure function of (spec, kernel, quirks) (see
  /// analysis::Manager), so it caches with the outcome.
  analysis::ManagerCounters analysis_cache;
  /// ir::annotated_fingerprint of `kernel` (a tree walk, no print),
  /// filled in by runtime::RowMemo::compile: the half of the plan key it
  /// contributes, equal to the one perf::analyze(k, m) computes.  Never
  /// persisted.  A bare compile() leaves it 0.
  std::uint64_t kernel_fingerprint = 0;

  [[nodiscard]] bool ok() const noexcept { return status == Status::Ok; }
};

/// Per-call knobs for compile(): quirk application changes the outcome
/// (and is part of every compile key); tracing is an observability
/// control that never changes it.
struct CompileContext {
  bool apply_quirks = true;
  /// Receives "analysis:*" spans for analysis cache misses.  May be null.
  obs::Tracer* tracer = nullptr;
};

/// Run `spec`'s pipeline on a clone of `source`.  `apply_quirks=false`
/// ignores the quirk DB (used by bench_ablation_quirks to separate
/// emergent from encoded behaviour).
[[nodiscard]] CompileOutcome compile(const CompilerSpec& spec,
                                     const ir::Kernel& source,
                                     bool apply_quirks = true);
[[nodiscard]] CompileOutcome compile(const CompilerSpec& spec,
                                     const ir::Kernel& source,
                                     const CompileContext& ctx);

/// First decision recorded for `pass`, or nullptr.
[[nodiscard]] const passes::Decision* find_decision(
    const std::vector<passes::Decision>& ds, const std::string& pass);

/// Compact one-line provenance for table cells and the journal: the
/// canonical passes in a fixed order, '+' fired / '-' not, e.g.
/// "interchange+,tile-,vectorize+,fuse-,polly-" (plus any extras the
/// pipeline ran, in first-appearance order).  Deterministic.
[[nodiscard]] std::string decision_summary(
    const std::vector<passes::Decision>& ds);

// ---- the concrete environments -------------------------------------------
[[nodiscard]] CompilerSpec fjtrad();
[[nodiscard]] CompilerSpec fjclang();
[[nodiscard]] CompilerSpec llvm12();
[[nodiscard]] CompilerSpec llvm_polly();
[[nodiscard]] CompilerSpec gnu();
[[nodiscard]] CompilerSpec icc();

/// The five A64FX environments in the paper's order (FJtrad first: it is
/// the recommended baseline every comparison is relative to).
[[nodiscard]] std::vector<CompilerSpec> paper_compilers();

// ---- beyond-paper extensions (compilers/extensions.cpp) -------------------
// The two compilers the paper omitted "due to licensing constraints"
// (Sec. 2.1), plus what-if variants isolating single capabilities.
[[nodiscard]] CompilerSpec armclang();
[[nodiscard]] CompilerSpec cray_cce();
[[nodiscard]] CompilerSpec gnu_fastmath();
[[nodiscard]] CompilerSpec fjtrad_with_interchange();

// ---- quirk database -------------------------------------------------------
// Compiler behaviours the paper documents that are *bugs*, not
// heuristics.  Everything else in the models must emerge from the
// generic pipeline; see DESIGN.md ("Emergent vs quirk-encoded").

struct Quirk {
  CompilerId compiler;
  std::string kernel;  ///< kernel name the quirk applies to
  CompileOutcome::Status effect = CompileOutcome::Status::Ok;
  double time_multiplier = 1.0;  ///< only for effect == Ok
  std::string reason;            ///< paper citation / mechanism
};

[[nodiscard]] const std::vector<Quirk>& quirk_db();
[[nodiscard]] const Quirk* find_quirk(CompilerId id, const std::string& kernel);

}  // namespace a64fxcc::compilers
