// Observability: tracing spans, the Chrome trace export invariants, the
// metrics registry, pass-decision provenance, and the contract that all
// of it is diagnostics-only — study tables must stay byte-identical with
// observability on or off, at any worker count, with or without faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "exec/line_log.hpp"
#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/shard.hpp"
#include "obs/trace.hpp"
#include "report/explain.hpp"

namespace {

using namespace a64fxcc;

// ---- tracer / spans -------------------------------------------------------

TEST(Trace, SpansNestInSequenceOrder) {
  obs::Tracer tracer;
  {
    const auto outer = obs::scoped(&tracer, "outer", "2mm", "LLVM");
    EXPECT_TRUE(static_cast<bool>(outer));
    const auto inner = obs::scoped(&tracer, "inner", "2mm", "LLVM");
  }
  const auto recs = tracer.records();
  ASSERT_EQ(recs.size(), 2u);
  // Inner ends first, so it is recorded first.
  const auto& inner = recs[0];
  const auto& outer = recs[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  // RAII nesting in global sequence order: B(outer) < B(inner) <
  // E(inner) < E(outer) — the property the Chrome export sorts by.
  EXPECT_LT(outer.begin_seq, inner.begin_seq);
  EXPECT_LT(inner.begin_seq, inner.end_seq);
  EXPECT_LT(inner.end_seq, outer.end_seq);
  EXPECT_LE(outer.begin_us, inner.begin_us);
  EXPECT_LE(inner.begin_us, inner.end_us);
  EXPECT_GE(outer.seconds(), inner.seconds());
  EXPECT_EQ(inner.benchmark, "2mm");
  EXPECT_EQ(inner.compiler, "LLVM");
}

TEST(Trace, NullTracerSpansAreInert) {
  // The harness instruments unconditionally; with no tracer attached a
  // span must do nothing at all.
  auto sp = obs::scoped(nullptr, "compile", "2mm", "LLVM");
  EXPECT_FALSE(static_cast<bool>(sp));
  sp.end();
  sp.end();  // idempotent
  obs::Span defaulted;
  EXPECT_FALSE(static_cast<bool>(defaulted));
}

TEST(Trace, MovedFromSpanRecordsExactlyOnce) {
  obs::Tracer tracer;
  {
    auto a = obs::scoped(&tracer, "phase", "", "");
    const auto b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: moved-from is inert
    EXPECT_TRUE(static_cast<bool>(b));
  }
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Trace, EndIsIdempotent) {
  obs::Tracer tracer;
  auto sp = obs::scoped(&tracer, "phase", "", "");
  sp.end();
  sp.end();
  EXPECT_EQ(tracer.size(), 1u);  // the destructor must not re-record
}

TEST(Trace, SummaryAggregatesByName) {
  obs::Tracer tracer;
  for (int i = 0; i < 3; ++i) obs::scoped(&tracer, "compile", "", "").end();
  obs::scoped(&tracer, "measure", "", "").end();
  const auto summary = tracer.summary();
  ASSERT_EQ(summary.size(), 2u);  // sorted by name
  EXPECT_EQ(summary[0].name, "compile");
  EXPECT_EQ(summary[0].count, 3u);
  EXPECT_GE(summary[0].total_seconds, summary[0].max_seconds);
  EXPECT_EQ(summary[1].name, "measure");
  EXPECT_EQ(summary[1].count, 1u);
  const auto text = tracer.summary_text();
  EXPECT_NE(text.find("compile"), std::string::npos);
  EXPECT_NE(text.find("measure"), std::string::npos);
}

// Replay one study's records the way the Chrome export does and check
// the viewer invariants: per thread, sorting all B/E events by sequence
// number yields stack-disciplined pairs with monotone timestamps.
TEST(Trace, StudySpansSatisfyChromeViewerInvariants) {
  obs::Tracer tracer;
  core::StudyOptions opt;
  opt.scale = 0.05;
  opt.jobs = 8;
  opt.tracer = &tracer;
  (void)core::Study(std::move(opt))
      .run_suite(kernels::microkernel_suite(0.05));

  struct Ev {
    std::uint64_t seq;
    double us;
    bool begin;
    const std::string* name;
  };
  std::map<int, std::vector<Ev>> by_tid;
  const auto records = tracer.records();  // outlives the Ev name pointers
  for (const auto& r : records) {
    by_tid[r.tid].push_back({r.begin_seq, r.begin_us, true, &r.name});
    by_tid[r.tid].push_back({r.end_seq, r.end_us, false, &r.name});
  }
  ASSERT_FALSE(by_tid.empty());
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(),
              [](const Ev& a, const Ev& b) { return a.seq < b.seq; });
    std::vector<const std::string*> stack;
    double last_us = 0;
    for (const auto& ev : evs) {
      EXPECT_GE(ev.us, last_us) << "non-monotone timestamp on tid " << tid;
      last_us = ev.us;
      if (ev.begin) {
        stack.push_back(ev.name);
      } else {
        ASSERT_FALSE(stack.empty()) << "E without B on tid " << tid;
        EXPECT_EQ(*stack.back(), *ev.name) << "mis-nested span on tid " << tid;
        stack.pop_back();
      }
    }
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

/// One tracer as the CLI renders an in-process --trace: one process row
/// of the merged renderer.
std::string chrome_json(const obs::Tracer& tracer) {
  obs::Aggregator agg;
  agg.add_process(1, "study", tracer.records());
  return agg.merged_trace_json();
}

TEST(Trace, ChromeJsonIsBalanced) {
  obs::Tracer tracer;
  {
    const auto cell = obs::scoped(&tracer, "cell", "2mm", "LLVM");
    obs::scoped(&tracer, "compile", "2mm", "LLVM").end();
  }
  const auto json = chrome_json(tracer);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"phaseSummary\""), std::string::npos);
  const auto occurrences = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(occurrences("\"ph\":\"B\""), 2u);
  EXPECT_EQ(occurrences("\"ph\":\"E\""), 2u);
  EXPECT_NE(json.find("\"2mm\""), std::string::npos);  // args survive
}

TEST(Trace, WriteTraceCreatesLoadableFile) {
  obs::Tracer tracer;
  obs::scoped(&tracer, "compile", "atax", "GNU").end();
  const std::string path = testing::TempDir() + "a64fxcc_trace_test.json";
  std::remove(path.c_str());
  const std::string json = chrome_json(tracer);
  ASSERT_TRUE(obs::write_artifact(path, json));
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const auto body = ss.str();
  EXPECT_EQ(body, json);
  EXPECT_EQ(body.front(), '{');
  EXPECT_FALSE(obs::write_artifact("/nonexistent-dir/trace.json", json));
  std::remove(path.c_str());
}

// ---- metrics --------------------------------------------------------------

TEST(Metrics, HistogramBucketsAndStats) {
  obs::Histogram h;
  h.add(5e-7);  // <= bound(0) = 1e-6
  h.add(1e-6);  // boundary: still bucket 0
  h.add(3e-6);  // bucket 1 (<= 4e-6)
  h.add(1e9);   // beyond bound(15): overflow
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.overflow, 1u);
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 5e-7 + 1e-6 + 3e-6 + 1e9);
  EXPECT_DOUBLE_EQ(h.min, 5e-7);
  EXPECT_DOUBLE_EQ(h.max, 1e9);
  // Bounds grow by 4x from 1 microsecond.
  EXPECT_DOUBLE_EQ(obs::Histogram::bound(0), 1e-6);
  EXPECT_DOUBLE_EQ(obs::Histogram::bound(2), 16e-6);
}

TEST(Metrics, CountersMatchTableStatuses) {
  // The acceptance check: metrics cell-status counts must equal what
  // the table itself reports.
  obs::MetricsSink metrics;
  core::StudyOptions opt;
  opt.scale = 0.05;
  opt.jobs = 4;
  opt.sink = &metrics;
  const auto t = core::Study(std::move(opt))
                     .run_suite(kernels::microkernel_suite(0.05));
  std::map<runtime::CellStatus, std::uint64_t> by_status;
  for (const auto& row : t.rows)
    for (const auto& cell : row.cells) ++by_status[cell.status];
  EXPECT_EQ(metrics.counter("cells_ok"), by_status[runtime::CellStatus::Ok]);
  EXPECT_EQ(metrics.counter("cells_compile_error"),
            by_status[runtime::CellStatus::CompileError]);
  EXPECT_EQ(metrics.counter("cells_runtime_error"),
            by_status[runtime::CellStatus::RuntimeError]);
  EXPECT_EQ(metrics.counter("cells_crashed"),
            by_status[runtime::CellStatus::Crashed]);
  EXPECT_EQ(metrics.counter("jobs_started"),
            t.rows.size() * t.compilers.size());
  EXPECT_GT(metrics.counter("compile_cache_misses"), 0u);
  EXPECT_EQ(metrics.counter("no_such_counter"), 0u);

  const auto json = metrics.snapshot().to_json();
  EXPECT_NE(json.find("\"cells_ok\""), std::string::npos);
  EXPECT_NE(json.find("\"compile_cache_hit_rate\""), std::string::npos);
  // The terminal events' phase times fed the per-phase histograms.
  EXPECT_NE(json.find("\"phase_compile_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"phase_measure_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"cell_wall_seconds\""), std::string::npos);
}

TEST(Metrics, ForwardsEventsToInnerSink) {
  exec::CollectingSink inner;
  obs::MetricsSink metrics(&inner);
  exec::Event e;
  e.kind = exec::EventKind::JobFinished;
  e.benchmark = "2mm";
  e.metrics.compile_cache_hits = 7;
  metrics.on_event(e);
  e.kind = exec::EventKind::JobStarted;
  metrics.on_event(e);
  EXPECT_EQ(inner.events().size(), 2u);
  EXPECT_EQ(metrics.counter("cells_ok"), 1u);
  EXPECT_EQ(metrics.counter("jobs_started"), 1u);
  EXPECT_EQ(metrics.counter("compile_cache_hits"), 7u);
}

TEST(Metrics, RetriesAndFailuresAreCounted) {
  // Injected crashes land in cells_crashed next to the quirk failures.
  // A cell is evaluated once, so no retries counter exists.
  obs::MetricsSink metrics;
  core::StudyOptions opt;
  opt.faults.crash = 0.3;
  opt.scale = 0.05;
  opt.sink = &metrics;
  const auto t = core::Study(std::move(opt))
                     .run_suite(kernels::microkernel_suite(0.05));
  std::uint64_t failed = 0;
  std::uint64_t crashed = 0;
  for (const auto& row : t.rows)
    for (const auto& cell : row.cells) {
      if (!cell.valid()) ++failed;
      if (cell.status == runtime::CellStatus::Crashed) ++crashed;
    }
  EXPECT_GT(crashed, 0u);
  EXPECT_EQ(metrics.counter("cells_crashed"), crashed);
  EXPECT_EQ(metrics.counter("cells_compile_error") +
                metrics.counter("cells_runtime_error") +
                metrics.counter("cells_crashed"),
            failed);
  EXPECT_EQ(metrics.counter("jobs_started"),
            t.rows.size() * t.compilers.size());
  EXPECT_EQ(metrics.snapshot().counters.count("retries"), 0u);
}

TEST(Metrics, WriteMetricsCreatesFile) {
  obs::MetricsSink metrics;
  const std::string path = testing::TempDir() + "a64fxcc_metrics_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::write_artifact(path, metrics.snapshot().to_json()));
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("\"version\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Metrics, StreamSinkLevelsGateOutput) {
  // Quiet writes nothing; Debug writes the start line and the cell's
  // phase/cache line that Progress skips.
  const auto bytes_written = [](exec::LogLevel level) {
    std::FILE* f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    {
      exec::StreamSink sink(f, level);
      exec::Event e;
      e.kind = exec::EventKind::JobFinished;
      e.benchmark = "2mm";
      e.compiler = "LLVM";
      e.metrics.compile_seconds = 0.001;
      sink.on_event(e);
      e.kind = exec::EventKind::JobStarted;
      sink.on_event(e);
    }
    std::fflush(f);
    const long n = std::ftell(f);
    std::fclose(f);
    return n;
  };
  EXPECT_EQ(bytes_written(exec::LogLevel::Quiet), 0L);
  EXPECT_GT(bytes_written(exec::LogLevel::Progress), 0L);
  EXPECT_GT(bytes_written(exec::LogLevel::Debug),
            bytes_written(exec::LogLevel::Progress));
}

// ---- diagnostics-only contract --------------------------------------------

report::Table run_suite_with(core::StudyOptions opt,
                             const std::vector<kernels::Benchmark>& suite) {
  opt.scale = 0.05;
  return core::Study(std::move(opt)).run_suite(suite);
}

TEST(ObsDeterminism, TablesAreByteIdenticalWithObservabilityOn) {
  // The acceptance criterion: rendered table bytes with tracing +
  // metrics attached equal the bare run, for every worker count.
  const auto suite = kernels::microkernel_suite(0.05);
  core::StudyOptions bare;
  bare.jobs = 1;
  const auto baseline = report::render_csv(run_suite_with(bare, suite));
  for (const int jobs : {1, 2, 8}) {
    obs::Tracer tracer;
    exec::StreamSink quiet(stderr, exec::LogLevel::Quiet);
    obs::MetricsSink metrics(&quiet);
    core::StudyOptions opt;
    opt.jobs = jobs;
    opt.sink = &metrics;
    opt.tracer = &tracer;
    const auto observed = report::render_csv(run_suite_with(opt, suite));
    EXPECT_EQ(observed, baseline) << "jobs=" << jobs;
    EXPECT_GT(tracer.size(), 0u) << "tracing was actually on";
  }
}

TEST(ObsDeterminism, ByteIdenticalUnderFaultInjectionAndRetries) {
  // Injected crashes throw out of the traced measure phase; the
  // unwound spans and the crashed cells' events still don't perturb
  // the table.
  const auto suite = kernels::microkernel_suite(0.05);
  core::StudyOptions bare;
  bare.jobs = 1;
  bare.faults.crash = 0.3;
  const auto baseline = report::render_csv(run_suite_with(bare, suite));
  for (const int jobs : {2, 8}) {
    obs::Tracer tracer;
    obs::MetricsSink metrics;
    auto opt = bare;
    opt.jobs = jobs;
    opt.sink = &metrics;
    opt.tracer = &tracer;
    const auto observed = report::render_csv(run_suite_with(opt, suite));
    EXPECT_EQ(observed, baseline) << "jobs=" << jobs;
    EXPECT_GT(metrics.counter("cells_crashed"), 0u);
    EXPECT_GT(tracer.size(), 0u);
  }
}

// ---- pass-decision provenance ---------------------------------------------

const ir::Kernel& find_kernel(const std::vector<kernels::Benchmark>& suite,
                              const std::string& name) {
  for (const auto& b : suite)
    if (b.name() == name) return b.kernel;
  ADD_FAILURE() << name << " not in suite";
  return suite.front().kernel;
}

TEST(Provenance, InterchangeDecisionSeparatesFjtradFromLlvm) {
  // The paper's 2mm story: FJtrad cannot interchange the C loop nest,
  // the LLVM family can — and the decision log says so explicitly.
  const auto suite = kernels::polybench_suite(0.05);
  const auto& k2mm = find_kernel(suite, "2mm");
  const auto fj = compilers::compile(compilers::fjtrad(), k2mm);
  const auto llvm = compilers::compile(compilers::llvm12(), k2mm);
  const auto* fj_ic = compilers::find_decision(fj.decisions, "interchange");
  const auto* llvm_ic = compilers::find_decision(llvm.decisions, "interchange");
  ASSERT_NE(fj_ic, nullptr);
  ASSERT_NE(llvm_ic, nullptr);
  EXPECT_FALSE(fj_ic->fired);
  EXPECT_NE(fj_ic->detail.find("not enabled"), std::string::npos);
  EXPECT_TRUE(llvm_ic->fired);
  EXPECT_EQ(compilers::find_decision(fj.decisions, "no-such-pass"), nullptr);
}

TEST(Provenance, DecisionSummaryListsCanonicalPassesInOrder) {
  const auto suite = kernels::polybench_suite(0.05);
  const auto& k2mm = find_kernel(suite, "2mm");
  const auto fj = compilers::compile(compilers::fjtrad(), k2mm);
  const auto llvm = compilers::compile(compilers::llvm12(), k2mm);
  const auto fj_s = compilers::decision_summary(fj.decisions);
  const auto llvm_s = compilers::decision_summary(llvm.decisions);
  EXPECT_NE(fj_s.find("interchange-"), std::string::npos) << fj_s;
  EXPECT_NE(llvm_s.find("interchange+"), std::string::npos) << llvm_s;
  // Fixed order: interchange before tile before vectorize.
  EXPECT_LT(llvm_s.find("interchange"), llvm_s.find("tile"));
  EXPECT_LT(llvm_s.find("tile"), llvm_s.find("vectorize"));
  EXPECT_TRUE(compilers::decision_summary({}).empty());
}

TEST(Provenance, DecisionsAreCachedWithTheOutcome) {
  runtime::RowMemo memo;
  runtime::RunMetrics rm;
  const auto suite = kernels::polybench_suite(0.05);
  const auto spec = compilers::llvm_polly();
  const auto& a = memo.compile(spec, suite[0], true, &rm);
  const auto& b = memo.compile(spec, suite[0], true, &rm);
  ASSERT_EQ(rm.compile_cache_hits, 1);
  EXPECT_FALSE(a.decisions.empty());
  EXPECT_EQ(&a, &b);  // provenance rides the memoized outcome
}

TEST(Provenance, EveryTableCellCarriesDecisions) {
  // All cells compile (even quirk-failed ones consult the quirk DB), so
  // every cell's MeasuredRun records a non-empty provenance summary.
  core::StudyOptions opt;
  const auto t =
      run_suite_with(std::move(opt), kernels::microkernel_suite(0.05));
  for (const auto& row : t.rows)
    for (const auto& cell : row.cells)
      EXPECT_FALSE(cell.decisions.empty())
          << row.benchmark << " x " << cell.compiler;
}

TEST(Provenance, ExplainRendersTheInterchangeDiff) {
  const auto suite = kernels::polybench_suite(0.05);
  const auto& k2mm = find_kernel(suite, "2mm");
  const auto entries =
      report::explain_benchmark(k2mm, compilers::paper_compilers());
  ASSERT_EQ(entries.size(), 5u);
  const auto text = report::render_explain("2mm", entries);
  EXPECT_NE(text.find("pass decisions for 2mm"), std::string::npos);
  EXPECT_NE(text.find("interchange:"), std::string::npos);
  // FJtrad's line under "interchange:" must say blocked; an LLVM-family
  // line must say fired.
  const auto at = text.find("interchange:");
  const auto block = text.substr(at, text.find("\n\n", at) - at);
  EXPECT_NE(block.find("FJtrad"), std::string::npos);
  EXPECT_NE(block.find("blocked"), std::string::npos);
  EXPECT_NE(block.find("fired"), std::string::npos);
}

// ---- histogram / registry merge -------------------------------------------

TEST(Metrics, HistogramMergeEqualsSingleObserver) {
  // Buckets align by construction, so merging shards must reproduce the
  // histogram one process observing every sample would have built.
  const double shard_a[] = {5e-7, 3e-6, 2e-3, 1e9};
  const double shard_b[] = {1e-6, 4e-2, 7.0};
  obs::Histogram a, b, all;
  for (const double v : shard_a) {
    a.add(v);
    all.add(v);
  }
  for (const double v : shard_b) {
    b.add(v);
    all.add(v);
  }
  a.merge(b);
  for (int i = 0; i < obs::Histogram::kBuckets; ++i)
    EXPECT_EQ(a.buckets[i], all.buckets[i]) << "bucket " << i;
  EXPECT_EQ(a.overflow, all.overflow);
  EXPECT_EQ(a.count, all.count);
  EXPECT_DOUBLE_EQ(a.sum, all.sum);
  EXPECT_DOUBLE_EQ(a.min, all.min);
  EXPECT_DOUBLE_EQ(a.max, all.max);
}

TEST(Metrics, HistogramEmptyMergeIsIdentityBothWays) {
  obs::Histogram h;
  h.add(2e-6);
  h.add(0.5);
  const obs::Histogram before = h;
  h.merge(obs::Histogram{});
  EXPECT_EQ(h.count, before.count);
  EXPECT_DOUBLE_EQ(h.sum, before.sum);
  EXPECT_DOUBLE_EQ(h.min, before.min);
  EXPECT_DOUBLE_EQ(h.max, before.max);
  obs::Histogram empty;
  empty.merge(before);
  EXPECT_EQ(empty.count, before.count);
  // min must come from the merged-in samples, not stay at +inf.
  EXPECT_DOUBLE_EQ(empty.min, before.min);
  EXPECT_DOUBLE_EQ(empty.max, before.max);
  for (int i = 0; i < obs::Histogram::kBuckets; ++i)
    EXPECT_EQ(empty.buckets[i], before.buckets[i]);
}

obs::ReportDoc write_and_load(const obs::Registry& reg,
                              const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  EXPECT_TRUE(obs::write_artifact(path, reg.to_json()));
  std::string err;
  auto doc = obs::load_report_doc(path, &err);
  EXPECT_TRUE(doc.has_value()) << err;
  std::remove(path.c_str());
  return doc.value_or(obs::ReportDoc{});
}

TEST(Metrics, RegistryMergeSumsCountersAndRecomputesGauges) {
  obs::Registry a;
  a.counters["jobs_started"] = 3;
  a.counters["compile_cache_hits"] = 1;
  a.counters["compile_cache_misses"] = 2;
  a.histograms["cell_wall_seconds"].add(0.25);
  obs::Registry b;
  b.counters["jobs_started"] = 5;
  b.counters["compile_cache_hits"] = 5;
  b.counters["cells_ok"] = 8;
  b.histograms["cell_wall_seconds"].add(0.75);
  b.histograms["phase_compile_seconds"].add(0.1);
  a.merge(b);
  EXPECT_EQ(a.counter("jobs_started"), 8u);
  EXPECT_EQ(a.counter("compile_cache_hits"), 6u);
  EXPECT_EQ(a.counter("compile_cache_misses"), 2u);
  EXPECT_EQ(a.counter("cells_ok"), 8u);
  EXPECT_EQ(a.histograms["cell_wall_seconds"].count, 2u);
  EXPECT_DOUBLE_EQ(a.histograms["cell_wall_seconds"].sum, 1.0);
  EXPECT_EQ(a.histograms["phase_compile_seconds"].count, 1u);
  const auto json_before = a.to_json();
  a.merge(obs::Registry{});  // empty merge is the identity
  EXPECT_EQ(a.to_json(), json_before);
  // Gauges are recomputed from the merged counters, never stored:
  // 6 hits of 8 lookups fleet-wide.
  const auto doc = write_and_load(a, "a64fxcc_reg_merge.json");
  EXPECT_EQ(doc.kind, obs::ReportDoc::Kind::Metrics);
  ASSERT_EQ(doc.gauges.count("compile_cache_hit_rate"), 1u);
  EXPECT_NEAR(doc.gauges.at("compile_cache_hit_rate"), 0.75, 1e-9);
  EXPECT_EQ(doc.counters.at("jobs_started"), 8u);
  ASSERT_EQ(doc.histograms.count("cell_wall_seconds"), 1u);
  EXPECT_EQ(doc.histograms.at("cell_wall_seconds").count, 2u);
  EXPECT_NEAR(doc.histograms.at("cell_wall_seconds").sum, 1.0, 1e-9);
}

// ---- telemetry shard codecs -----------------------------------------------

obs::CellTelemetry sample_cell() {
  obs::CellTelemetry c;
  c.key = 0xdeadbeefcafe1234ull;
  c.benchmark = "2mm";
  c.compiler = "FJtrad";
  c.status = runtime::CellStatus::Ok;
  c.gen = 1;
  c.pid = 4242;
  c.metrics.compile_cache_hits = 1;
  c.metrics.compile_cache_misses = 2;
  c.metrics.plan_cache_hits = 3;
  c.metrics.plan_cache_misses = 4;
  c.metrics.estimate_cache_hits = 5;
  c.metrics.estimate_cache_misses = 6;
  c.metrics.analysis_cache_hits = 7;
  c.metrics.analysis_cache_misses = 8;
  c.metrics.analysis_cache_invalidations = 9;
  c.metrics.compile_seconds = 0.25;
  c.metrics.explore_seconds = 0.5;
  c.metrics.measure_seconds = 0.125;
  c.wall_seconds = 1.0;
  return c;
}

TEST(Shard, CellRecordRoundTrips) {
  const auto c = sample_cell();
  const auto line = obs::encode_cell(c);
  const auto d = obs::decode_cell(line);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->key, c.key);
  EXPECT_EQ(d->benchmark, c.benchmark);
  EXPECT_EQ(d->compiler, c.compiler);
  EXPECT_EQ(d->status, c.status);
  EXPECT_EQ(d->gen, c.gen);
  EXPECT_EQ(d->pid, c.pid);
  // One attempt per generation: the line still carries "attempt" (equal
  // to gen), which readers of older builds require.
  EXPECT_NE(line.find("\"gen\":1,\"attempt\":1,"), std::string::npos) << line;
  const runtime::RunMetrics& m = c.metrics;
  EXPECT_EQ(d->metrics.compile_cache_hits, m.compile_cache_hits);
  EXPECT_EQ(d->metrics.compile_cache_misses, m.compile_cache_misses);
  EXPECT_EQ(d->metrics.plan_cache_hits, m.plan_cache_hits);
  EXPECT_EQ(d->metrics.plan_cache_misses, m.plan_cache_misses);
  EXPECT_EQ(d->metrics.estimate_cache_hits, m.estimate_cache_hits);
  EXPECT_EQ(d->metrics.estimate_cache_misses, m.estimate_cache_misses);
  EXPECT_EQ(d->metrics.analysis_cache_hits, m.analysis_cache_hits);
  EXPECT_EQ(d->metrics.analysis_cache_misses, m.analysis_cache_misses);
  EXPECT_EQ(d->metrics.analysis_cache_invalidations,
            m.analysis_cache_invalidations);
  EXPECT_DOUBLE_EQ(d->metrics.compile_seconds, m.compile_seconds);
  EXPECT_DOUBLE_EQ(d->metrics.explore_seconds, m.explore_seconds);
  EXPECT_DOUBLE_EQ(d->metrics.measure_seconds, m.measure_seconds);
  EXPECT_DOUBLE_EQ(d->wall_seconds, c.wall_seconds);
  EXPECT_EQ(line.find("backoffs"), std::string::npos);
  // Shards written while cells retried carry an attempt past the
  // generation and the backoffs before each retry; both are ignored,
  // and the rest of the line decodes as before.
  std::string retried = line;
  const std::string attempt = "\"attempt\":1,";
  retried.replace(retried.find(attempt), attempt.size(), "\"attempt\":3,");
  retried.insert(retried.size() - 1, ",\"backoffs\":[0,0.125]");
  const auto r = obs::decode_cell(retried);
  ASSERT_TRUE(r.has_value()) << retried;
  EXPECT_EQ(r->key, c.key);
  EXPECT_EQ(r->gen, c.gen);
  EXPECT_EQ(r->metrics.analysis_cache_invalidations,
            m.analysis_cache_invalidations);
  EXPECT_DOUBLE_EQ(r->wall_seconds, c.wall_seconds);
  EXPECT_EQ(obs::encode_cell(*r), line);
  // Shards written while the placement search existed carry its fields;
  // they are ignored, and the rest of the line decodes as before.
  const std::string older =
      line.substr(0, line.size() - 1) +
      ",\"search_pruned\":4,\"search_trials\":12,\"search_rounds\":[8,4]}";
  const auto o = obs::decode_cell(older);
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->key, c.key);
  EXPECT_EQ(o->metrics.analysis_cache_invalidations,
            m.analysis_cache_invalidations);
  // Likewise the batched estimate sweep's counters and config list, at
  // the position its encoder wrote them.
  std::string swept = line;
  swept.insert(swept.find("\"compile_seconds\""),
               "\"sweep_calls\":2,\"sweep_filled\":5,"
               "\"sweep_configs\":[40,40],");
  const auto w = obs::decode_cell(swept);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->key, c.key);
  EXPECT_EQ(w->metrics.analysis_cache_invalidations,
            m.analysis_cache_invalidations);
  EXPECT_DOUBLE_EQ(w->metrics.compile_seconds, m.compile_seconds);
  // Shards written while the tier could evict carry an evictions count
  // after the invalidations counter; it is ignored too.
  std::string evicting = line;
  evicting.insert(evicting.find(",\"compile_seconds\""), ",\"evictions\":10");
  EXPECT_NE(evicting.find("\"invalidations\":9,\"evictions\":10,"),
            std::string::npos);
  const auto e = obs::decode_cell(evicting);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->key, c.key);
  EXPECT_EQ(e->metrics.analysis_cache_invalidations,
            m.analysis_cache_invalidations);
  EXPECT_DOUBLE_EQ(e->metrics.compile_seconds, m.compile_seconds);
  EXPECT_EQ(line.find("evictions"), std::string::npos);
}

TEST(Shard, SpanRecordRoundTripsWithAndWithoutArgs) {
  obs::Tracer::Record r;
  r.name = "compile";
  r.benchmark = "atax";
  r.compiler = "GNU";
  r.tid = 3;
  r.begin_seq = 10;
  r.end_seq = 11;
  r.begin_us = 1.5;
  r.end_us = 2.5;
  const auto d = obs::decode_span(obs::encode_span(r, 77));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->pid, 77);
  EXPECT_EQ(d->record.name, "compile");
  EXPECT_EQ(d->record.benchmark, "atax");
  EXPECT_EQ(d->record.compiler, "GNU");
  EXPECT_EQ(d->record.tid, 3);
  EXPECT_EQ(d->record.begin_seq, 10u);
  EXPECT_EQ(d->record.end_seq, 11u);
  EXPECT_DOUBLE_EQ(d->record.begin_us, 1.5);
  EXPECT_DOUBLE_EQ(d->record.end_us, 2.5);
  r.benchmark.clear();
  r.compiler.clear();
  const auto bare = obs::decode_span(obs::encode_span(r, 77));
  ASSERT_TRUE(bare.has_value());
  EXPECT_TRUE(bare->record.benchmark.empty());
  EXPECT_TRUE(bare->record.compiler.empty());
}

TEST(Shard, DecodersRejectTornAlienAndFutureLines) {
  const auto cell = obs::encode_cell(sample_cell());
  obs::Tracer::Record r;
  r.name = "cell";
  r.tid = 2;
  r.begin_seq = 1;
  r.end_seq = 2;
  r.begin_us = 10;
  r.end_us = 20;
  const auto span = obs::encode_span(r, 99);
  // Wrong kind for the decoder at hand.
  EXPECT_FALSE(obs::decode_cell(span).has_value());
  EXPECT_FALSE(obs::decode_span(cell).has_value());
  // Torn tails and noise.
  EXPECT_FALSE(obs::decode_cell(cell.substr(0, cell.size() / 2)).has_value());
  EXPECT_FALSE(obs::decode_span(span.substr(0, span.size() / 2)).has_value());
  EXPECT_FALSE(obs::decode_cell("").has_value());
  EXPECT_FALSE(obs::decode_span("not json").has_value());
  // A future format version is skipped, never misread.
  std::string future = cell;
  const auto at = future.find("\"v\":1");
  ASSERT_NE(at, std::string::npos);
  future.replace(at, 5, "\"v\":9");
  EXPECT_FALSE(obs::decode_cell(future).has_value());
  // A status label no runtime::CellStatus spells is malformed too.
  std::string alien_status = cell;
  const auto st = alien_status.find("\"status\":\"ok\"");
  ASSERT_NE(st, std::string::npos);
  alien_status.replace(st, 13, "\"status\":\"exploded\"");
  EXPECT_FALSE(obs::decode_cell(alien_status).has_value());
}

TEST(Shard, WriterNewlineTerminatesTornTail) {
  const std::string path = testing::TempDir() + "a64fxcc_shard_torn.jsonl";
  std::remove(path.c_str());
  {
    std::ofstream f(path, std::ios::binary);
    f << R"({"v":1,"kind":"cell","key":"00)";  // writer died mid-line
  }
  exec::LineLog w;
  ASSERT_TRUE(w.open(path));
  ASSERT_TRUE(w.append(obs::encode_cell(sample_cell()) + "\n"));
  w.close();
  std::ifstream f(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(f, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);  // the fresh line never glued onto the tail
  EXPECT_FALSE(obs::decode_cell(lines[0]).has_value());
  EXPECT_TRUE(obs::decode_cell(lines[1]).has_value());
  std::remove(path.c_str());
}

// ---- cross-process aggregation --------------------------------------------

std::string fresh_shard_dir(const std::string& name) {
  const auto dir =
      std::filesystem::path(testing::TempDir()) / ("a64fxcc_obs_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream f(path, std::ios::binary);
  for (const auto& l : lines) f << l << '\n';
}

TEST(Aggregate, DedupesCellsLastWinsInSortedFilenameOrder) {
  const auto dir = fresh_shard_dir("dedupe");
  auto first = sample_cell();
  first.gen = 0;
  auto second = first;  // same key: the cell re-leased after a kill
  second.gen = 1;
  second.pid = 5555;
  auto other = sample_cell();
  other.key = 0x1111;
  write_lines(dir + "/" + obs::metrics_shard_name(0),
              {obs::encode_cell(first), "{\"torn", obs::encode_cell(other)});
  write_lines(dir + "/" + obs::metrics_shard_name(1),
              {obs::encode_cell(second)});
  obs::Aggregator agg;
  ASSERT_TRUE(agg.load_dir(dir));
  EXPECT_EQ(agg.stats().metrics_shards, 2u);
  EXPECT_EQ(agg.stats().cells, 2u);
  EXPECT_EQ(agg.stats().duplicate_cells, 1u);
  EXPECT_EQ(agg.stats().skipped_lines, 1u);
  const auto cells = agg.cells();
  ASSERT_EQ(cells.size(), 2u);  // cell-key order: 0x1111 first
  EXPECT_EQ(cells[0].key, 0x1111u);
  EXPECT_EQ(cells[1].key, first.key);
  EXPECT_EQ(cells[1].gen, 1);  // the later shard's record won
  EXPECT_EQ(cells[1].pid, 5555);
  obs::Aggregator missing;
  EXPECT_FALSE(missing.load_dir(dir + "/no-such-subdir"));
}

TEST(Aggregate, MergedRegistryFoldsDedupedCells) {
  const auto dir = fresh_shard_dir("fold");
  const auto a = sample_cell();  // ok, gen 1
  auto b = sample_cell();
  b.key = 0x2222;
  b.status = runtime::CellStatus::CompileError;
  b.gen = 0;
  write_lines(dir + "/" + obs::metrics_shard_name(0),
              {obs::encode_cell(a), obs::encode_cell(b)});
  obs::Aggregator agg;
  ASSERT_TRUE(agg.load_dir(dir));
  auto reg = agg.merged_registry();
  EXPECT_EQ(reg.counter("jobs_started"), 2u);
  EXPECT_EQ(reg.counter("cells_ok"), 1u);
  EXPECT_EQ(reg.counter("cells_compile_error"), 1u);
  EXPECT_EQ(reg.counter("compile_cache_hits"), 2u);
  EXPECT_EQ(reg.counter("analysis_cache_misses"), 16u);
  EXPECT_EQ(reg.counter("cells_crashed"), 0u);  // zero counters never created
  EXPECT_EQ(reg.counters.count("cells_crashed"), 0u);
  EXPECT_EQ(reg.histograms["cell_wall_seconds"].count, 2u);
  EXPECT_EQ(reg.histograms["phase_compile_seconds"].count, 2u);
  // An explicitly added registry (the supervisor's own sink) merges in.
  obs::Registry extra;
  extra.counters["workers_spawned"] = 3;
  agg.add_registry(extra);
  EXPECT_EQ(agg.merged_registry().counter("workers_spawned"), 3u);
}

TEST(Aggregate, MergedTraceNamesEveryProcessRow) {
  const auto dir = fresh_shard_dir("trace");
  obs::Tracer::Record outer;
  outer.name = "cell";
  outer.benchmark = "2mm";
  outer.compiler = "GNU";
  outer.tid = 1;
  outer.begin_seq = 1;
  outer.end_seq = 4;
  outer.begin_us = 0;
  outer.end_us = 30;
  auto inner = outer;
  inner.name = "compile";
  inner.begin_seq = 2;
  inner.end_seq = 3;
  inner.begin_us = 5;
  inner.end_us = 20;
  write_lines(dir + "/" + obs::trace_shard_name(0),
              {obs::encode_span(outer, 100), obs::encode_span(inner, 100)});
  obs::Aggregator agg;
  ASSERT_TRUE(agg.load_dir(dir));
  obs::Tracer::Record sup = outer;
  sup.name = "sup:reduce";
  sup.benchmark.clear();
  sup.compiler.clear();
  agg.add_process(99, "supervisor", {sup});
  ASSERT_EQ(agg.processes().size(), 2u);
  EXPECT_EQ(agg.stats().spans, 3u);
  const auto json = agg.merged_trace_json();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("worker-0000 (pid 100)"), std::string::npos);
  EXPECT_NE(json.find("supervisor (pid 99)"), std::string::npos);
  const auto occurrences = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(occurrences("\"ph\":\"B\""), 3u);
  EXPECT_EQ(occurrences("\"ph\":\"E\""), 3u);
  // Round-trips through the report loader as a trace document.
  const std::string path = dir + "/merged.json";
  ASSERT_TRUE(obs::write_artifact(path, agg.merged_trace_json()));
  std::string err;
  const auto doc = obs::load_report_doc(path, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->kind, obs::ReportDoc::Kind::Trace);
  EXPECT_FALSE(doc->phases.empty());
}

// ---- obs report -----------------------------------------------------------

TEST(ObsReport, SummarizesMetricsAndRendersDiff) {
  obs::Registry base_reg;
  base_reg.counters["cells_ok"] = 10;
  base_reg.counters["cells_crashed"] = 1;
  base_reg.histograms["cell_wall_seconds"].add(1.0);
  obs::Registry cur_reg;
  cur_reg.counters["cells_ok"] = 10;
  cur_reg.counters["cells_crashed"] = 4;
  cur_reg.histograms["cell_wall_seconds"].add(1.5);
  const auto base = write_and_load(base_reg, "a64fxcc_report_base.json");
  const auto cur = write_and_load(cur_reg, "a64fxcc_report_cur.json");
  const auto summary = obs::summarize_report(base);
  EXPECT_NE(summary.find("cells_ok"), std::string::npos);
  EXPECT_NE(summary.find("cell_wall_seconds"), std::string::npos);
  const auto diff = obs::diff_reports(base, cur);
  EXPECT_NE(diff.find("cells_crashed"), std::string::npos);  // +3 delta
  EXPECT_NE(diff.find("(+50.0%)"), std::string::npos);  // 1.0s -> 1.5s
  std::string err;
  EXPECT_FALSE(obs::load_report_doc("/no/such/file.json", &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(Provenance, DecisionsCsvHasOneLinePerCell) {
  core::StudyOptions opt;
  const auto t = run_suite_with(std::move(opt), kernels::top500_suite(0.05));
  const auto csv = report::render_decisions_csv(t);
  std::size_t lines = 0;
  for (const char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 1 + t.rows.size() * t.compilers.size());
  EXPECT_EQ(csv.rfind("benchmark,compiler,decisions\n", 0), 0u);
}

}  // namespace
