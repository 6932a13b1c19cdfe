#pragma once
// The benchmark's three workloads.  Each has a set-up (timed as
// setup_s) and one operation: one whole paper-scale study, 108
// benchmarks x 5 compilers at scale 1.0, on seed `seed`.
//
//   paper_cold     fresh core::Study with its own cache tier, jobs=1
//   restudy_warm   new Study on a cache::Service warmed during set-up,
//                  jobs = hardware threads
//   procs_journal  distrib::Supervisor with hardware threads - 1 worker
//                  processes into a fresh shard directory, then a second
//                  Supervisor pass that resumes it
//
// Operations only drive the library's public API; the traced run
// attaches the public obs::Tracer and obs::MetricsSink through a Probe.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/service.hpp"
#include "core/study.hpp"
#include "distrib/supervisor.hpp"
#include "kernels/benchmark.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/figure2.hpp"

namespace e2e {

enum class Kind { PaperCold, RestudyWarm, ProcsJournal };

[[nodiscard]] std::optional<Kind> parse_kind(std::string_view name);

/// State a workload's set-up builds and its operations share.
struct Context {
  std::vector<a64fxcc::kernels::Benchmark> suite;
  /// restudy_warm: the tier every operation's Study attaches to.
  std::unique_ptr<a64fxcc::cache::Service> warm;
  /// Directory the procs_journal shard directories live under.
  std::string work_dir;
  int nproc = 1;
};

/// Observability attached to one traced operation, and what the
/// operation leaves behind for the layer replay.
struct Probe {
  a64fxcc::obs::Tracer tracer;
  a64fxcc::obs::MetricsSink sink;
  /// Filled by collect(): event-folded counters (merged with every
  /// worker's telemetry shard on procs_journal) and span records, one
  /// group per process.
  a64fxcc::obs::Registry counters;
  std::vector<std::vector<a64fxcc::obs::Tracer::Record>> spans;
  /// Filled by the operation itself.
  std::vector<a64fxcc::cache::Service::CacheStats> cache_stats;
  a64fxcc::distrib::SupervisorStats fresh;
  a64fxcc::distrib::SupervisorStats resumed;
  double resume_wall_s = 0;
};

struct OpOutput {
  a64fxcc::report::Table table;
  std::string csv;
  a64fxcc::core::Summary summary;
  /// procs_journal: the operation's shard directory (the caller removes
  /// it once done with it).
  std::string shard_dir;
};

/// Study options of operation seed `seed` (scale 1.0, paper compilers).
[[nodiscard]] a64fxcc::core::StudyOptions study_options(std::uint64_t seed);

/// Build `ctx` for workload `k` from scratch: the kernel suite, then the
/// warmed tier (restudy_warm) or one discarded warm-up operation.
void setup(Kind k, Context& ctx, std::uint64_t seed);

/// One operation: the study, its CSV rendering and its summary.  Throws
/// on any failure the library reports.
[[nodiscard]] OpOutput run_op(Kind k, const Context& ctx, std::uint64_t seed,
                              Probe* probe = nullptr);

/// After a traced operation: fold its counters and spans into `probe`.
void collect(Kind k, const OpOutput& out, Probe& probe);

/// The workload's byte-identity contract for the table of seed `seed`
/// (rendered as `csv`): restudy_warm and procs_journal must equal a
/// cold in-process study of the same seed.  Empty when it holds.
[[nodiscard]] std::string identity_check(Kind k, const Context& ctx,
                                         std::uint64_t seed,
                                         const std::string& csv);

}  // namespace e2e
