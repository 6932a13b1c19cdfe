#pragma once
// Deterministic parallel job runner.
//
// for_each_job starts its threads for one call and joins them before it
// returns.  Every thread, the calling one included, claims jobs from a
// single atomic cursor — no work stealing, no per-worker queues, so
// there is exactly one scheduling mechanism to reason about.  The runner
// guarantees nothing about *which* worker runs *which* job; callers must
// make each job's result a pure function of its index (the Study layer
// achieves this with per-cell RNG streams derived from
// (seed, benchmark, compiler) — see runtime::cell_stream), which is what
// makes parallel results bit-identical to the serial path regardless of
// worker count or scheduling order.
//
// With one worker (or one job) the calling thread runs everything in
// index order: that *is* the serial path, byte for byte.

#include <cstddef>
#include <functional>

namespace a64fxcc::exec {

/// Worker count actually used for a request: positive values pass
/// through, 0 (or negative) resolves to hardware_concurrency, and the
/// result is always >= 1.
[[nodiscard]] int resolve_workers(int requested);

/// Run fn(job, worker) once for every job in 0..njobs-1 on
/// min(resolve_workers(workers), njobs) threads: the calling thread is
/// worker 0, and the others are started here and joined before this
/// returns.  Jobs must be independent and must write disjoint results.
/// Every job runs even when others throw; afterwards the exception of
/// the *lowest failed job index* is rethrown (deterministic for any
/// worker count, unlike first-arrival).
void for_each_job(std::size_t njobs, int workers,
                  const std::function<void(std::size_t job, int worker)>& fn);

}  // namespace a64fxcc::exec
