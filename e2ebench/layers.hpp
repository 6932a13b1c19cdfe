#pragma once
// Per-layer CPU breakdown of one traced operation.
//
// The library's layers are timed from the benchmark's own spans around
// their public entry points, never from spans inside the library: after
// a traced operation, the benchmark replays each layer's work — as many
// calls as the operation's own counters say it made — on the calling
// thread, with CLOCK_THREAD_CPUTIME_ID around each batch of calls:
//
//   compilers::compile      one per compile-cache miss
//   perf::analyze           one per plan-cache miss
//   perf::evaluate          one per estimate-cache miss, over each valid
//                           cell's Harness::candidate_placements
//   runtime::noise_sample   one per noise draw (explore trials + 10 per
//                           valid cell)
//   report::render_csv, core::summarize   once, on the operation's table
//   core::Journal::record / load, distrib::Reducer::merge
//                           procs_journal only: the shard I/O of the op
//
// What the operation spent beyond these layers (orchestration, the
// cache tier, the engine, fork/reap and the lease queue) is
// layers.unattributed_ms, so the table sums to study_cpu_ms.

#include <cstdint>
#include <string>
#include <vector>

#include "compilers/compiler_model.hpp"
#include "core/study.hpp"
#include "kernels/benchmark.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/plan.hpp"
#include "report/figure2.hpp"

namespace e2e {

/// Every distinct unit of work one cold paper-scale study does, in study
/// order, built once (untimed) before the traced loop.
struct Inventory {
  struct Cell {
    const a64fxcc::kernels::Benchmark* bench = nullptr;
    std::size_t spec = 0;  ///< index into specs
  };
  struct Eval {
    std::size_t plan = 0;  ///< index into plans
    a64fxcc::perf::ExecConfig cfg;
    a64fxcc::perf::CodegenProfile prof;
  };
  std::vector<a64fxcc::compilers::CompilerSpec> specs;
  std::vector<Cell> cells;  ///< row-major, one compile each
  std::vector<a64fxcc::compilers::CompileOutcome> outcomes;
  std::vector<const a64fxcc::ir::Kernel*> plan_kernels;  ///< distinct plans
  std::vector<a64fxcc::perf::KernelPlan> plans;          ///< same order
  std::vector<Eval> evals;  ///< distinct (plan, placement, profile)
  std::vector<double> noise_cvs;  ///< noise CV of each valid cell
  std::size_t candidates = 0;     ///< placements over valid cells
};

[[nodiscard]] Inventory build_inventory(
    const std::vector<a64fxcc::kernels::Benchmark>& suite);

/// One replayed layer: calls made and thread CPU they took.
struct Layer {
  std::string name;
  double calls = 0;
  double cpu_ms = 0;
};

/// What one traced operation did, read off its counters.
struct WorkCounts {
  std::uint64_t compiles = 0;
  std::uint64_t plans = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t explore_trials = 0;
  std::uint64_t cells_ok = 0;
  std::uint64_t journal_lines = 0;  ///< shard lines written (procs only)
  std::uint64_t journal_loads = 0;  ///< Journal::load passes outside the reducer
  std::uint64_t reduces = 0;        ///< Reducer::merge calls

  [[nodiscard]] std::uint64_t noise_draws() const {
    return explore_trials + 10 * cells_ok;
  }
};

[[nodiscard]] WorkCounts work_counts(const a64fxcc::obs::Registry& counters,
                                     const Inventory& inv);

/// Replay the operation's layer work and time each layer.  `shard_dir`
/// and `scratch_journal` are used only when counts has journal or
/// reduce work.
[[nodiscard]] std::vector<Layer> replay_layers(
    const Inventory& inv, const WorkCounts& counts,
    const a64fxcc::report::Table& table, std::uint64_t seed,
    const std::vector<a64fxcc::kernels::Benchmark>& suite,
    const std::string& shard_dir, const std::string& scratch_journal);

/// Self wall time (ms) summed over all spans named `name`: each span's
/// duration minus the part its direct child spans cover.  `groups` hold
/// one process's records each.
[[nodiscard]] double self_ms(
    const std::vector<std::vector<a64fxcc::obs::Tracer::Record>>& groups,
    const std::string& name);

/// Lines of every result shard (shard-*.jsonl) under `dir`.
[[nodiscard]] std::uint64_t shard_lines(const std::string& dir);

}  // namespace e2e
