#pragma once
// Crash-isolated multi-process study runtime.
//
// The Supervisor forks N worker processes.  Each worker leases whole
// benchmark rows (every compiler's cell of one benchmark) from the
// durable work queue (`<shard-dir>/leases.jsonl`), evaluates them
// through the exact same core::evaluate_cell path the in-process
// study uses — one row against one set of per-benchmark caches, so a
// worker does the same compile/plan/evaluate work the in-process study
// does — and marks the row done in one lease-log write whose done
// records carry the cells' outcomes (distrib/work_queue.hpp).  Workers
// inherit the supervisor's replayed queue across fork() rather than
// replaying the log from the start.  The supervisor never evaluates a
// cell: it forks workers,
// reaps dead ones (waitpid), SIGKILLs hung ones (lease-deadline
// expiry), releases their leases for re-lease, forks a replacement for
// each crashed worker at once, and reduces.  Once 4 + 3 * procs
// replacements are spent, a crashed worker's replacement skips injected
// crashes instead of dying of them, and is not replaced if it dies
// anyway; with no worker left, cells nobody finished reduce as missing
// (XX), and a re-run over the directory reopens them.  The Reducer
// assembles the canonical table from the outcomes of the log's done
// records.  The lease log is a study's one durable file: it records all
// of its progress and results, and `a64fxcc status` reads it back
// (distrib/status.hpp).
//
// run_suite forks, so a caller should start no other thread before it:
// a child inherits every lock such a thread holds at the fork (a malloc
// arena's, a stdio stream's) with no thread to release it.  Such an
// inherited lock is the likely cause of a worker once seen blocked on a
// futex while it held the lease lock; the kill -9 tests' watcher is a
// process for that reason.
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
  /// parent: workers run silent and report through the lease log.  `jobs` becomes the per-worker thread count, each
  /// thread leasing its own rows (<= 0 resolves to 1 — with multiple
  /// processes the default is one thread each, not
  /// hardware_concurrency per worker).
  /// `cache_service` must be null: caches cannot be shared across fork.
  core::StudyOptions study;
  /// Worker processes to fork (>= 1).
  int procs = 2;
  /// Directory for leases.jsonl (and the telemetry shards).  Created if
  /// missing; an existing directory resumes: a done cell restores the
  /// outcome its done record carries unless that is a crash (XX) or does
  /// not decode, and a pass that finds every cell restored forks no
  /// worker.
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
  /// to the lease log, for cross-process aggregation via
  /// `load_telemetry`.  Independently, the supervisor's own lifecycle
  /// spans (sup:*) record on `study.tracer` whenever one is set.
  bool telemetry = false;
};

struct SupervisorStats {
  int workers_spawned = 0;  ///< initial forks + respawns
  int worker_respawns = 0;
  std::size_t cells_released = 0;  ///< leases returned after death/expiry
  /// Done before this run started, and restored from the lease log.
  std::size_t resumed_cells = 0;
  /// Done before this run started, but crashed (XX) or with no outcome
  /// that decodes: reopened for this run to evaluate.
  std::size_t reopened_cells = 0;
  /// The respawn budget ran out, or a fork failed.
  bool degraded = false;
  ReduceStats reduce;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions opt);

  /// Run one suite across the worker fleet and reduce its lease log.
  /// Throws std::runtime_error when the work queue cannot be opened
  /// (unwritable shard dir, or a platform without fork).
  [[nodiscard]] report::Table run_suite(
      const std::vector<kernels::Benchmark>& suite);

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
