#pragma once
// Deterministic parallel execution engine.
//
// A fixed pool of worker threads evaluates independent jobs claimed from
// a single atomic cursor — no work stealing, no per-worker queues, so
// there is exactly one scheduling mechanism to reason about.  The engine
// guarantees nothing about *which* worker runs *which* job; callers must
// make each job's result a pure function of its index (the Study layer
// achieves this with per-cell RNG streams derived from
// (seed, benchmark, compiler) — see runtime::cell_stream), which is what
// makes parallel results bit-identical to the serial path regardless of
// worker count or scheduling order.
//
// With one worker (or one job) the calling thread runs everything
// inline: that *is* the legacy serial path, byte for byte.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

namespace a64fxcc::exec {

/// Worker count actually used for a request: positive values pass
/// through, 0 (or negative) resolves to hardware_concurrency, and the
/// result is always >= 1.
[[nodiscard]] int resolve_workers(int requested);

/// One failed job of a batch: its index plus the exception it threw.
struct JobError {
  std::size_t job = 0;
  std::exception_ptr error;
};

/// Outcome of one batch: every job error, sorted by job index (a
/// deterministic order — arrival order depends on scheduling).
struct BatchResult {
  std::vector<JobError> errors;
  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
};

class Engine {
 public:
  /// Spawns `workers` persistent threads (0 = hardware concurrency).
  /// A single-worker engine spawns no threads at all.
  explicit Engine(int workers = 0);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] int workers() const noexcept { return workers_; }

  /// Evaluate jobs 0..njobs-1 by calling fn(job, worker); blocks until
  /// the batch drains.  Jobs must be independent and must write
  /// disjoint results.  Failures are isolated: all njobs execute
  /// regardless of failures, and every job exception is caught and
  /// returned (never lost).  Not reentrant: one batch at a time per
  /// engine.
  [[nodiscard]] BatchResult try_run(
      std::size_t njobs,
      const std::function<void(std::size_t job, int worker)>& fn);

  /// Legacy throwing wrapper: try_run, then rethrows the
  /// error of the *lowest failed job index* (deterministic for any
  /// worker count, unlike first-arrival).  Errors beyond the first are
  /// reported only via try_run.
  void run(std::size_t njobs,
           const std::function<void(std::size_t job, int worker)>& fn);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int workers_ = 1;
};

}  // namespace a64fxcc::exec
