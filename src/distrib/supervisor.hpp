#pragma once
// Crash-isolated multi-process study runtime.
//
// The Supervisor forks N worker processes.  Each worker leases whole
// benchmark rows (every compiler's cell of one benchmark) from the
// durable work queue (`<shard-dir>/leases.jsonl`), evaluates them
// through the exact same core::evaluate_cell path the in-process
// study uses — one row against one set of per-benchmark caches, so a
// worker does the same compile/plan/evaluate work the in-process study
// does — appends each row's outcomes to its own shard journal
// (`shard-<k>.jsonl`, the standard JSONL journal format) in one write,
// and then marks the row done in one lease-log write.  Workers inherit
// the supervisor's replayed queue across fork() rather than replaying
// the log from the start.  Each pass numbers its shards after the
// highest index already in the directory, so sorted file order (the
// merge's last-line-wins order) is creation order across resumed
// passes.  The supervisor reaps dead workers (waitpid), SIGKILLs hung
// ones (lease-deadline expiry), releases their leases for re-lease, and
// respawns replacements after a deterministic pause — degrading to an
// inline drain in the parent once 4 + 3 * procs respawns have died
// too.  A Reducer pass then merges the shards into the canonical
// table.  The lease log and the result shards record all of a study's
// progress; `a64fxcc status` reads it back from them
// (distrib/status.hpp).
//
// Determinism contract: every cell's measurement is a pure function of
// (seed, benchmark, compiler) — the lease generation feeds only the
// injected-crash decision (runtime::FaultPlan), as its attempt index —
// so the merged table of a crash-recovered N-process run is
// byte-identical to a clean single-process one (asserted in
// tests/test_distrib.cpp with a real kill -9).

#include <string>
#include <vector>

#include "core/study.hpp"
#include "distrib/reducer.hpp"
#include "distrib/work_queue.hpp"
#include "kernels/benchmark.hpp"
#include "obs/aggregate.hpp"
#include "report/figure2.hpp"

namespace a64fxcc::distrib {

struct SupervisorOptions {
  /// Study configuration.  The sink/tracer (if any) observe only the
  /// parent: workers run silent and report through their shard
  /// journals.  `jobs` becomes the per-worker thread count, each
  /// thread leasing its own rows (<= 0 resolves to 1 — with multiple
  /// processes the default is one thread each, not
  /// hardware_concurrency per worker).
  /// `cache_service` must be null: caches cannot be shared across fork.
  core::StudyOptions study;
  /// Worker processes to fork (>= 1).
  int procs = 2;
  /// Directory for leases.jsonl + the per-worker shard journals.
  /// Created if missing; an existing directory resumes: a done cell
  /// restores its shard outcome unless that is a crash (XX) or missing,
  /// and a pass that finds every cell restored forks no worker.
  std::string shard_dir = "a64fxcc-shards";
  /// Lease validity.  A worker that holds a lease past its deadline is
  /// presumed hung: the supervisor SIGKILLs it and re-leases its
  /// cells.  Each thread of a worker leases one benchmark row at a
  /// time, so this must comfortably exceed the slowest row's wall time
  /// (all compilers of one benchmark).  A crash loses at most one row
  /// per worker thread.
  double lease_deadline_seconds = 30;
  /// Worker telemetry: each worker streams `trace-shard-<k>.jsonl`
  /// (one line per completed span, on the parent tracer's time axis)
  /// and `metrics-shard-<k>.jsonl` (one line per completed cell) next
  /// to its result shard, for cross-process aggregation via
  /// `load_telemetry`.  Independently, the supervisor's own lifecycle
  /// spans (sup:*) record on `study.tracer` whenever one is set.
  bool telemetry = false;
};

struct SupervisorStats {
  int workers_spawned = 0;  ///< initial forks + respawns
  int worker_respawns = 0;
  std::size_t cells_released = 0;  ///< leases returned after death/expiry
  std::size_t inline_cells = 0;    ///< drained by the degraded parent
  /// Done before this run started, and restored from the shards.
  std::size_t resumed_cells = 0;
  /// Done before this run started, but crashed (XX) or missing from
  /// every shard: reopened for this run to evaluate.
  std::size_t reopened_cells = 0;
  bool degraded = false;           ///< respawn budget ran out
  ReduceStats reduce;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions opt);

  /// Run one suite across the worker fleet and merge the shards.
  /// Throws std::runtime_error when the work queue cannot be opened
  /// (unwritable shard dir, or a platform without fork).
  [[nodiscard]] report::Table run_suite(
      const std::vector<kernels::Benchmark>& suite);

  /// All 108 benchmarks (Figure 2) at the configured scale.
  [[nodiscard]] report::Table run_all();

  /// Fold the finished run's telemetry into `agg`: every worker
  /// trace/metrics shard in the shard dir, plus the supervisor's own
  /// lifecycle spans as the "supervisor" process row (when a tracer
  /// was configured).  False when the shard dir cannot be read.
  bool load_telemetry(obs::Aggregator& agg) const;

  [[nodiscard]] const SupervisorStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const SupervisorOptions& options() const noexcept {
    return opt_;
  }

 private:
  SupervisorOptions opt_;
  SupervisorStats stats_;
};

}  // namespace a64fxcc::distrib
