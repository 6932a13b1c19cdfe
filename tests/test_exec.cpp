// Execution engine: scheduling, determinism, compile keys, events.
//
// The load-bearing guarantee is bit-identity: run_suite must produce
// byte-identical report::Table contents for any worker count, because
// every cell draws its noise from a per-cell RNG stream
// (runtime::cell_stream), never from a shared sequence.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/study.hpp"
#include "exec/engine.hpp"
#include "exec/events.hpp"
#include "obs/trace.hpp"

namespace {

using namespace a64fxcc;

// ---- engine scheduling ----------------------------------------------------

TEST(Engine, ResolveWorkers) {
  EXPECT_EQ(exec::resolve_workers(3), 3);
  EXPECT_EQ(exec::resolve_workers(1), 1);
  EXPECT_GE(exec::resolve_workers(0), 1);
  EXPECT_GE(exec::resolve_workers(-2), 1);
}

TEST(Engine, RunsEveryJobExactlyOnce) {
  constexpr std::size_t kJobs = 257;
  std::vector<std::atomic<int>> hits(kJobs);
  exec::for_each_job(kJobs, 4, [&](std::size_t j, int worker) {
    ASSERT_LT(j, kJobs);
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    hits[j].fetch_add(1);
  });
  for (std::size_t j = 0; j < kJobs; ++j) EXPECT_EQ(hits[j].load(), 1) << j;
  exec::for_each_job(0, 4, [](std::size_t, int) { FAIL(); });
}

TEST(Engine, SingleWorkerRunsInlineInOrder) {
  std::vector<std::size_t> order;
  exec::for_each_job(5, 1, [&](std::size_t j, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(j);  // no lock needed: inline on this thread
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Engine, CallerIsOneOfTheWorkers) {
  // Each of `workers` jobs waits until all of them have started: that
  // completes only if `workers` threads run at once, the caller being
  // one of them.  The bound turns a missing thread into a failure
  // instead of a hang.
  constexpr int kWorkers = 4;
  const auto caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<bool> caller_ran{false};
  std::vector<int> met(kWorkers, 0);
  exec::for_each_job(kWorkers, kWorkers, [&](std::size_t j, int worker) {
    if (std::this_thread::get_id() == caller) {
      EXPECT_EQ(worker, 0);
      caller_ran = true;
    }
    started.fetch_add(1);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < kWorkers && std::chrono::steady_clock::now() < until)
      std::this_thread::yield();
    met[j] = started.load();
  });
  EXPECT_TRUE(caller_ran.load());
  for (int j = 0; j < kWorkers; ++j) EXPECT_EQ(met[j], kWorkers) << j;
}

TEST(Engine, PropagatesJobExceptions) {
  const auto fail_job_3 = [](std::size_t j, int) {
    if (j == 3) throw std::runtime_error("boom");
  };
  EXPECT_THROW(exec::for_each_job(8, 2, fail_job_3), std::runtime_error);
  // A failed call leaves no state behind: the next one runs every job.
  std::atomic<int> n{0};
  exec::for_each_job(4, 2, [&](std::size_t, int) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 4);
}

TEST(Engine, RunRethrowsLowestIndexError) {
  // With several failing jobs, every job still runs, and the rethrow is
  // deterministic — the lowest job index — not whichever worker lost
  // the race.
  std::vector<std::atomic<int>> hits(16);
  try {
    exec::for_each_job(16, 4, [&](std::size_t j, int) {
      hits[j].fetch_add(1);
      if (j % 5 == 2) throw std::runtime_error("job " + std::to_string(j));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 2");
  }
  for (std::size_t j = 0; j < hits.size(); ++j)
    EXPECT_EQ(hits[j].load(), 1) << j;
}

// ---- compile keys ---------------------------------------------------------

TEST(CompileCache, FingerprintSeesSpecKnobs) {
  auto a = compilers::llvm12();
  auto b = a;
  EXPECT_EQ(compilers::fingerprint(a), compilers::fingerprint(b));
  b.unroll += 1;
  EXPECT_NE(compilers::fingerprint(a), compilers::fingerprint(b));
}

// ---- determinism across worker counts -------------------------------------

void expect_identical(const report::Table& a, const report::Table& b) {
  ASSERT_EQ(a.compilers, b.compilers);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    const auto& ra = a.rows[r];
    const auto& rb = b.rows[r];
    EXPECT_EQ(ra.benchmark, rb.benchmark);
    EXPECT_EQ(ra.suite, rb.suite);
    EXPECT_EQ(ra.language, rb.language);
    ASSERT_EQ(ra.cells.size(), rb.cells.size());
    for (std::size_t c = 0; c < ra.cells.size(); ++c) {
      const auto& ca = ra.cells[c];
      const auto& cb = rb.cells[c];
      EXPECT_EQ(ca.benchmark, cb.benchmark);
      EXPECT_EQ(ca.compiler, cb.compiler);
      EXPECT_EQ(ca.status, cb.status);
      // EXPECT_EQ on doubles = exact bit comparison (no tolerance):
      // parallel evaluation must not change a single ULP.
      EXPECT_EQ(ca.best_seconds, cb.best_seconds) << ca.benchmark;
      EXPECT_EQ(ca.median_seconds, cb.median_seconds) << ca.benchmark;
      EXPECT_EQ(ca.cv, cb.cv) << ca.benchmark;
      EXPECT_EQ(ca.placement.ranks, cb.placement.ranks) << ca.benchmark;
      EXPECT_EQ(ca.placement.threads, cb.placement.threads) << ca.benchmark;
      EXPECT_EQ(ca.bottleneck, cb.bottleneck);
      EXPECT_EQ(ca.gflops, cb.gflops) << ca.benchmark;
      EXPECT_EQ(ca.mem_gbs, cb.mem_gbs) << ca.benchmark;
      EXPECT_EQ(ca.decisions, cb.decisions) << ca.benchmark;
    }
  }
}

report::Table run_with_jobs(const std::vector<kernels::Benchmark>& suite,
                            int jobs, exec::EventSink* sink = nullptr,
                            obs::Tracer* tracer = nullptr) {
  core::StudyOptions opt;
  opt.scale = 0.05;
  opt.jobs = jobs;
  opt.sink = sink;
  opt.tracer = tracer;
  return core::Study(std::move(opt)).run_suite(suite);
}

TEST(Determinism, WorkerCountDoesNotChangeResults) {
  // Mixed suite: one-CMG exploration (micro), MPI rank x thread grids +
  // library-fraction reference compiles (top500), pure-OpenMP (fiber).
  auto suite = kernels::top500_suite(0.05);
  {
    auto micro = kernels::microkernel_suite(0.05);
    for (std::size_t i = 0; i < 6; ++i)
      suite.push_back(std::move(micro[i]));
    auto fiber = kernels::fiber_suite(0.05);
    for (std::size_t i = 0; i < 3; ++i)
      suite.push_back(std::move(fiber[i]));
  }
  const auto t1 = run_with_jobs(suite, 1);
  const auto t2 = run_with_jobs(suite, 2);
  const auto t8 = run_with_jobs(suite, 8);
  expect_identical(t1, t2);
  expect_identical(t1, t8);
}

TEST(Determinism, MatchesLegacySerialSemantics) {
  // The jobs=1 path is the legacy loop: same Harness::run calls in the
  // same order.  Spot-check a known Figure-2 shape survives the engine.
  const auto suite = kernels::microkernel_suite(0.05);
  const auto t = run_with_jobs(suite, 8);
  ASSERT_EQ(t.rows.size(), 22u);
  int gnu_errors = 0;
  for (const auto& row : t.rows)
    if (!row.cells[4].valid()) ++gnu_errors;
  EXPECT_EQ(gnu_errors, 6);
}

TEST(Determinism, PerCellCountersMatchAtOneAndFourWorkers) {
  // A row's cells share one memo and run in column order on one thread,
  // so which cell a compile, plan or evaluation miss lands on cannot
  // depend on scheduling: every cell's counters match across worker
  // counts, not just the study's totals.
  const auto suite = kernels::all_benchmarks(0.25);
  const auto counters = [&suite](int jobs) {
    exec::CollectingSink sink;
    (void)run_with_jobs(suite, jobs, &sink);
    std::map<std::pair<std::size_t, std::size_t>, std::array<int, 9>> out;
    for (const auto& e : sink.events()) {
      if (e.kind == exec::EventKind::JobStarted) continue;
      const runtime::RunMetrics& m = e.metrics;
      out[{e.row, e.col}] = {m.compile_cache_hits,  m.compile_cache_misses,
                             m.plan_cache_hits,     m.plan_cache_misses,
                             m.estimate_cache_hits, m.estimate_cache_misses,
                             m.analysis_cache_hits, m.analysis_cache_misses,
                             m.analysis_cache_invalidations};
    }
    return out;
  };
  const auto one = counters(1);
  const auto four = counters(4);
  ASSERT_EQ(one.size(), suite.size() * compilers::paper_compilers().size());
  ASSERT_EQ(four.size(), one.size());
  std::size_t differing = 0;
  for (const auto& [cell, want] : one) {
    const auto it = four.find(cell);
    ASSERT_NE(it, four.end());
    if (it->second != want) ++differing;
  }
  EXPECT_EQ(differing, 0u);
}

TEST(Determinism, CellStreamIsPerCellNotShared) {
  EXPECT_NE(runtime::cell_stream("2mm", "LLVM"),
            runtime::cell_stream("2mm", "GNU"));
  EXPECT_NE(runtime::cell_stream("2mm", "LLVM"),
            runtime::cell_stream("3mm", "LLVM"));
  EXPECT_EQ(runtime::cell_stream("2mm", "LLVM"),
            runtime::cell_stream("2mm", "LLVM"));
}

// ---- event sink -----------------------------------------------------------

TEST(Events, SinkSeesEveryCellExactlyOnce) {
  const auto suite = kernels::top500_suite(0.05);
  exec::CollectingSink sink;
  const auto t = run_with_jobs(suite, 8, &sink);
  const std::size_t cells = t.rows.size() * t.compilers.size();
  EXPECT_EQ(sink.count(exec::EventKind::JobStarted), cells);
  EXPECT_EQ(sink.count(exec::EventKind::JobFinished), cells);
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const auto& e : sink.events()) {
    if (e.kind != exec::EventKind::JobFinished) continue;
    EXPECT_TRUE(seen.emplace(e.row, e.col).second)
        << "duplicate completion for cell " << e.row << "," << e.col;
    EXPECT_EQ(e.benchmark, t.rows[e.row].benchmark);
    EXPECT_EQ(e.compiler, t.compilers[e.col]);
    EXPECT_EQ(e.model_seconds, t.rows[e.row].cells[e.col].best_seconds);
    EXPECT_GE(e.wall_seconds, 0.0);
  }
  EXPECT_EQ(seen.size(), cells);
}

TEST(Events, EveryCellEmitsExactlyOneTerminalEvent) {
  // The microkernel suite has 9 quirk-failed cells (6 GNU runtime
  // errors + kernel 22's compile error on the 3 clang-based
  // compilers): those emit JobFailed, valid cells emit JobFinished,
  // and each cell emits exactly one of the two — at every worker count.
  const auto suite = kernels::microkernel_suite(0.05);
  for (const int jobs : {1, 2, 8}) {
    exec::CollectingSink sink;
    const auto t = run_with_jobs(suite, jobs, &sink);
    const std::size_t cells = t.rows.size() * t.compilers.size();
    EXPECT_EQ(sink.count(exec::EventKind::JobStarted), cells) << jobs;
    EXPECT_EQ(sink.count(exec::EventKind::JobFinished) +
                  sink.count(exec::EventKind::JobFailed),
              cells)
        << jobs;
    EXPECT_EQ(sink.count(exec::EventKind::JobFailed), 9u) << jobs;
    std::set<std::pair<std::size_t, std::size_t>> terminal;
    for (const auto& e : sink.events()) {
      if (e.kind != exec::EventKind::JobFinished &&
          e.kind != exec::EventKind::JobFailed)
        continue;
      EXPECT_TRUE(terminal.emplace(e.row, e.col).second)
          << "two terminal events for cell " << e.row << "," << e.col;
      const bool cell_ok = t.rows[e.row].cells[e.col].valid();
      EXPECT_EQ(e.kind == exec::EventKind::JobFinished, cell_ok);
      if (e.kind == exec::EventKind::JobFailed) {
        EXPECT_NE(e.status, runtime::CellStatus::Ok);
        EXPECT_FALSE(e.detail.empty());
        EXPECT_EQ(e.detail, t.rows[e.row].cells[e.col].diagnostic);
      }
    }
    EXPECT_EQ(terminal.size(), cells) << jobs;
  }
}

TEST(Events, ToStringCoversEveryKind) {
  using exec::EventKind;
  EXPECT_STREQ(to_string(EventKind::JobStarted), "job-started");
  EXPECT_STREQ(to_string(EventKind::JobFinished), "job-finished");
  EXPECT_STREQ(to_string(EventKind::JobFailed), "job-failed");
  EXPECT_STREQ(to_string(EventKind::WorkerSpawned), "worker-spawned");
  EXPECT_STREQ(to_string(EventKind::WorkerExited), "worker-exited");
  EXPECT_STREQ(to_string(EventKind::WorkerRespawned), "worker-respawned");
  EXPECT_STREQ(to_string(EventKind::CellReleased), "cell-released");
}

TEST(Events, ParseLogLevelRoundTrips) {
  exec::LogLevel level{};
  ASSERT_TRUE(exec::parse_log_level("quiet", &level));
  EXPECT_EQ(level, exec::LogLevel::Quiet);
  ASSERT_TRUE(exec::parse_log_level("progress", &level));
  EXPECT_EQ(level, exec::LogLevel::Progress);
  ASSERT_TRUE(exec::parse_log_level("debug", &level));
  EXPECT_EQ(level, exec::LogLevel::Debug);
  EXPECT_FALSE(exec::parse_log_level("verbose", &level));
  EXPECT_FALSE(exec::parse_log_level("", &level));
}

TEST(Events, TerminalEventsCarryEveryPhase) {
  // Every cell compiles, so every terminal event carries a positive
  // compile time; valid cells add explore and measure.  The
  // terminal-event invariant (exactly one JobFinished or JobFailed per
  // cell) must survive tracing being attached.
  const auto suite = kernels::microkernel_suite(0.05);
  for (const int jobs : {1, 2, 8}) {
    exec::CollectingSink sink;
    obs::Tracer tracer;
    const auto t = run_with_jobs(suite, jobs, &sink, &tracer);
    const std::size_t cells = t.rows.size() * t.compilers.size();

    // Exactly one terminal event per cell, tracing notwithstanding.
    EXPECT_EQ(sink.count(exec::EventKind::JobFinished) +
                  sink.count(exec::EventKind::JobFailed),
              cells)
        << jobs;
    std::set<std::pair<std::size_t, std::size_t>> terminal;
    for (const auto& e : sink.events()) {
      if (e.kind != exec::EventKind::JobFinished &&
          e.kind != exec::EventKind::JobFailed)
        continue;
      EXPECT_TRUE(terminal.emplace(e.row, e.col).second)
          << "two terminal events for cell " << e.row << "," << e.col;
      const std::string cell = e.benchmark + " x " + e.compiler;
      EXPECT_GT(e.metrics.compile_seconds, 0.0) << cell;
      if (t.rows[e.row].cells[e.col].valid()) {
        EXPECT_GT(e.metrics.explore_seconds, 0.0) << cell;
        EXPECT_GT(e.metrics.measure_seconds, 0.0) << cell;
      }
    }
    EXPECT_EQ(terminal.size(), cells) << jobs;

    // The tracer saw the same work: one "cell" span per cell.
    std::size_t cell_spans = 0;
    for (const auto& r : tracer.records())
      if (r.name == "cell") ++cell_spans;
    EXPECT_EQ(cell_spans, cells) << jobs;
  }
}

TEST(Events, StreamSinkIsThreadSafeForFailureEvents) {
  // Hammer a StreamSink with concurrent failure, finish and worker
  // lifecycle events (into a scratch file): must not crash, race, or
  // interleave torn lines.
  std::FILE* devnull = std::fopen("/dev/null", "w");
  ASSERT_NE(devnull, nullptr);
  {
    exec::StreamSink sink(devnull);
    exec::for_each_job(256, 8, [&](std::size_t j, int worker) {
      exec::Event e;
      e.kind = (j % 3 == 0) ? exec::EventKind::JobFailed
               : (j % 3 == 1) ? exec::EventKind::WorkerExited
                              : exec::EventKind::JobFinished;
      e.benchmark = "bench" + std::to_string(j);
      e.compiler = "CC";
      e.worker = worker;
      e.status = runtime::CellStatus::RuntimeError;
      e.detail = "synthetic failure";
      sink.on_event(e);
    });
  }
  std::fclose(devnull);
}

TEST(Events, LibraryBenchmarksHitTheCompileCache) {
  // hpl (library_fraction > 0) re-needs the FJtrad reference in every
  // column: its row memo compiles FJtrad once, for the FJtrad cell, and
  // all five reference lookups hit.  No other top500 row has a library
  // share.
  const auto suite = kernels::top500_suite(0.05);
  exec::CollectingSink sink;
  (void)run_with_jobs(suite, 1, &sink);
  int hits = 0, misses = 0;
  for (const auto& e : sink.events()) {
    hits += e.metrics.compile_cache_hits;
    misses += e.metrics.compile_cache_misses;
  }
  EXPECT_EQ(hits, 5);
  EXPECT_GT(misses, 0);
}

}  // namespace
