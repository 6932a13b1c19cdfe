#pragma once
// Measurement harness reproducing the paper's methodology (Sec. 2.3/2.4):
//
//  1. Compile the benchmark under a compiler environment.
//  2. Exploration phase: for strong-scaling parallel codes, try a set of
//     MPI-rank x OMP-thread placements (respecting pow2 / one-CMG /
//     single-core constraints), three trial runs each; the fastest
//     time-to-solution picks the placement, individually per compiler.
//  3. Performance phase: ten runs at the chosen placement; report the
//     fastest, plus median and CV.
//
// "Runs" are performance-model evaluations perturbed by a seeded
// lognormal noise whose CV is a per-benchmark trait (AMG 0.114%,
// BabelStream up to 22% — Sec. 2.4), so best-of-N semantics are
// faithful yet bit-reproducible.

// Determinism contract: every noise draw for one (benchmark, compiler)
// cell derives from `seed ^ cell_stream(benchmark, compiler)` — a
// per-cell RNG stream, not a shared sequence — so a cell's MeasuredRun
// is a pure function of (seed, benchmark, compiler) and the execution
// engine can evaluate cells in any order, on any worker, with
// bit-identical results to the serial path.
//
// Only the noise depends on the seed.  Everything else a cell's
// measurement reads — compile verdict, decisions, candidate placements
// and each candidate's noise-free time — is a CellModel, memoized once
// per cell on the cache tier ("cells"); a new seed then costs only its
// draws over that model.  A model is built through the RowMemo of the
// cell's benchmark row, which shares compiles, plans and evaluations
// among the row's cells.

#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/service.hpp"
#include "compilers/compiler_model.hpp"
#include "kernels/benchmark.hpp"
#include "machine/machine.hpp"
#include "perf/perf_model.hpp"
#include "runtime/fault.hpp"
#include "runtime/outcome.hpp"
#include "runtime/row_memo.hpp"

namespace a64fxcc::runtime {

/// RNG stream id of one (benchmark x compiler) cell.  All noise applied
/// while measuring the cell is drawn from substreams of this id, which
/// is what makes parallel evaluation order-independent.
[[nodiscard]] std::uint64_t cell_stream(const std::string& benchmark,
                                        const std::string& compiler);

/// One lognormal noise sample: `t` perturbed to coefficient-of-variation
/// `cv`, drawn from the stream identified by (seed, stream).
///
/// Seeding contract (deliberate, relied on by the engine's any-order
/// parallelism and asserted by test_runtime): a sample is counter-based
/// — the key mix64(seed ^ stream) is hashed into two uniform words that
/// one Box-Muller transform turns into a standard normal — so each
/// (seed, stream) pair is an independent single-draw stream and a
/// sample is a pure function of (seed, stream, t, cv) with no
/// draw-order state.  Equal streams give bit-equal samples by design;
/// distinct streams are decorrelated by the hash mixing.  This is why
/// the harness derives a distinct substream id per (cell, phase, trial)
/// rather than drawing a sequence from one generator.
[[nodiscard]] double noise_sample(std::uint64_t seed, std::uint64_t stream,
                                  double t, double cv);

struct Placement {
  int ranks = 1;
  int threads = 1;
  friend bool operator==(const Placement&, const Placement&) = default;
};

/// The reference placement the paper's recommendation implies for a
/// benchmark on `m`: one rank per domain x its cores (4x12 on A64FX) for
/// MPI+OpenMP, 1 x all cores for pure OpenMP, 1 x one domain's cores for
/// one-CMG codes, and 1x1 for serial and single-core ones.
[[nodiscard]] Placement recommended_for(const machine::Machine& m,
                                        ir::ParallelModel model,
                                        const kernels::BenchmarkTraits& traits);

/// Map a compile-stage status onto the cell taxonomy (Crashed can only
/// originate in the execution layer).
[[nodiscard]] constexpr CellStatus cell_status(
    compilers::CompileOutcome::Status st) noexcept {
  switch (st) {
    case compilers::CompileOutcome::Status::Ok: return CellStatus::Ok;
    case compilers::CompileOutcome::Status::CompileError:
      return CellStatus::CompileError;
    case compilers::CompileOutcome::Status::RuntimeError:
      return CellStatus::RuntimeError;
  }
  return CellStatus::Crashed;
}

struct MeasuredRun {
  std::string benchmark;
  std::string compiler;
  CellStatus status = CellStatus::Ok;
  /// Structured failure detail (quirk citation, injected-crash tag,
  /// exception text); empty for valid cells.
  std::string diagnostic;
  double best_seconds = std::numeric_limits<double>::infinity();
  double median_seconds = std::numeric_limits<double>::infinity();
  double cv = 0;
  Placement placement;
  std::string bottleneck;
  double gflops = 0;
  double mem_gbs = 0;
  /// Compact pass-decision provenance of the compile that produced this
  /// cell ("interchange+,tile-,..." — compilers::decision_summary).
  /// Deterministic and journaled; empty for cells whose evaluation threw
  /// (an injected crash) and for restored pre-provenance journal lines.
  std::string decisions;

  [[nodiscard]] bool valid() const noexcept {
    return status == CellStatus::Ok;
  }
};

/// The seed-independent half of one cell's measurement: a pure function
/// of (compiler, benchmark kernel, quirk mode, machine, placement
/// traits), so one model serves every seed.  The noise CV is not part
/// of it: Harness::run reads the benchmark's trait when it draws.
struct CellModel {
  CellStatus status = CellStatus::Ok;
  std::string diagnostic;  ///< compile-stage failure detail
  std::string decisions;   ///< compilers::decision_summary of the compile

  /// One candidate placement, with the main plan's characterization
  /// there (the values MeasuredRun reports for the winner).
  struct Candidate {
    Placement placement;
    /// Noise-free model time, vendor-library reference included.
    double seconds = 0;
    double total_flops = 0;
    double mem_bytes = 0;
    std::string_view bottleneck;  ///< a static literal (perf::PerfResult)
  };
  /// In candidate_placements order; empty for failed compiles (and for
  /// machines that admit no placement).
  std::vector<Candidate> candidates;
};

class Harness {
 public:
  /// With `cache_service`, the "cells" map registers on the shared
  /// tier (stats in one place; warm cell models shared across harnesses
  /// on the same service).  Without, it is private.  The service must
  /// outlive the harness.
  explicit Harness(machine::Machine m, std::uint64_t seed = 42,
                   bool apply_quirks = true,
                   cache::Service* cache_service = nullptr);

  /// Full methodology for one attempt: look up the cell's CellModel, or
  /// build it through `memo`, the memo of the cell's benchmark row; then
  /// explore and measure with this seed's noise over it.  `ctx` says
  /// whether the attempt crashes and carries its index and tracer.
  /// Safe to call concurrently with distinct memos: the "cells" map is
  /// the only state threads share, and it synchronizes itself.
  /// Deterministic per the cell_stream contract above.  Quirk failures
  /// return a MeasuredRun with the corresponding status + diagnostic.
  /// Throws CellError(Crashed) at performance run 5 of a crashing
  /// attempt, and CellError(RuntimeError) when the machine topology
  /// admits no placement candidate at all (degenerate machines only).
  [[nodiscard]] MeasuredRun run(const compilers::CompilerSpec& spec,
                                const kernels::Benchmark& bench,
                                RowMemo& memo, const RunContext& ctx = {},
                                RunMetrics* metrics = nullptr) const;

  /// One cell on its own: run() through a memo of its own.
  [[nodiscard]] MeasuredRun run(const compilers::CompilerSpec& spec,
                                const kernels::Benchmark& bench,
                                const RunContext& ctx = {},
                                RunMetrics* metrics = nullptr) const;

  /// Placement candidates for a benchmark under this machine's topology
  /// (the paper's --mpi max-proc-per-node exploration set).  Pure-OpenMP
  /// codes only vary thread counts; MPI+OpenMP codes sweep the rank x
  /// thread grid.
  [[nodiscard]] std::vector<Placement> candidate_placements(
      const kernels::BenchmarkTraits& traits,
      ir::ParallelModel model = ir::ParallelModel::MpiOpenMP) const;

  /// runtime::recommended_for on this harness's machine.
  [[nodiscard]] Placement recommended_for(
      ir::ParallelModel model, const kernels::BenchmarkTraits& traits) const;

  /// Noise-free model time of one configuration (exposed for tests and
  /// the ablation benches).  Each call compiles, plans and evaluates
  /// afresh: nothing is memoized across calls.
  [[nodiscard]] double model_time(const compilers::CompilerSpec& spec,
                                  const kernels::Benchmark& bench,
                                  Placement p) const;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  [[nodiscard]] const machine::Machine& machine() const noexcept {
    return machine_;
  }

  /// The recommended A64FX usage model the paper questions: 4 ranks
  /// (one per CMG) x 12 threads.
  [[nodiscard]] Placement recommended_placement() const;

 private:
  /// Everything candidate_at needs for one compiled cell, held in the
  /// row's memo: the compile outcome, and for library cells the FJtrad
  /// reference, plus their plans (null when a compile failed).
  struct CompiledCell {
    const compilers::CompileOutcome* out = nullptr;
    const compilers::CompileOutcome* ref = nullptr;  ///< FJtrad library ref
    double library_fraction = 0;
    const perf::KernelPlan* plan = nullptr;
    const perf::KernelPlan* ref_plan = nullptr;
  };

  /// Compile (spec, bench), plus the FJtrad reference of a library
  /// cell, and plan what compiled, all through `memo` (counted into
  /// `metrics`; `tracer` gets the pipeline's spans and a "plan" span).
  [[nodiscard]] CompiledCell compile_cell(const compilers::CompilerSpec& spec,
                                          const kernels::Benchmark& bench,
                                          RowMemo& memo, RunMetrics* metrics,
                                          obs::Tracer* tracer) const;

  /// One placement of an ok compiled cell: its model time, including
  /// the compiler-independent vendor-library component (derived from
  /// the FJtrad reference), and the main plan's characterization there.
  [[nodiscard]] CellModel::Candidate candidate_at(const CompiledCell& cell,
                                                  Placement p, RowMemo& memo,
                                                  RunMetrics* metrics) const;

  /// The memoized model of (spec, bench), built on first use through
  /// `memo` (see compile_cell).
  [[nodiscard]] std::shared_ptr<const CellModel> model_cached(
      const compilers::CompilerSpec& spec, const kernels::Benchmark& bench,
      RowMemo& memo, RunMetrics* metrics, obs::Tracer* tracer) const;

  /// The "cells" key of (spec, bench) on this harness.
  [[nodiscard]] std::uint64_t cell_key(const compilers::CompilerSpec& spec,
                                       const kernels::Benchmark& bench) const;

  /// model_cached's miss path.
  [[nodiscard]] CellModel build_model(const compilers::CompilerSpec& spec,
                                      const kernels::Benchmark& bench,
                                      RowMemo& memo, RunMetrics* metrics,
                                      obs::Tracer* tracer) const;

  double noisy(double t, double cv, std::uint64_t stream) const;

  machine::Machine machine_;
  std::uint64_t seed_;
  bool apply_quirks_ = true;
  /// Memoized cell models ("cells" on the tier), keyed by every input a
  /// model reads: spec, kernel, quirk mode, machine and placement
  /// traits.  Insert-only and self-synchronizing.
  using CellMap = cache::ShardedMap<std::uint64_t, CellModel>;
  std::unique_ptr<CellMap> owned_cells_;  ///< standalone mode only
  CellMap* cells_;
  /// The machine half of every cell key, hashed once here.
  std::uint64_t machine_fp_;
};

}  // namespace a64fxcc::runtime
