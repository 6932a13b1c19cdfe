// Fault tolerance: taxonomy, deterministic crash injection, and the
// journal line format that result shards use.
//
// The load-bearing guarantees:
//   * a study with injected crashes still completes and is
//     byte-identical for any worker count (crash decisions are pure
//     functions of cell identity + attempt, never of scheduling);
//   * MeasuredRun values do not depend on the attempt index, so a cell
//     re-evaluated after a crash equals a clean run's bit for bit.
// Resuming a shard directory is tested in tests/test_distrib.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/cell.hpp"
#include "core/journal.hpp"
#include "core/study.hpp"
#include "runtime/fault.hpp"
#include "runtime/outcome.hpp"

namespace {

using namespace a64fxcc;

// ---- taxonomy --------------------------------------------------------------

TEST(Taxonomy, LabelsAndMarkersCoverEveryStatus) {
  using runtime::CellStatus;
  EXPECT_STREQ(to_string(CellStatus::Ok), "ok");
  EXPECT_STREQ(to_string(CellStatus::CompileError), "compiler error");
  EXPECT_STREQ(to_string(CellStatus::RuntimeError), "runtime error");
  EXPECT_STREQ(to_string(CellStatus::Crashed), "crash");
  EXPECT_STREQ(marker(CellStatus::Ok), "ok");
  EXPECT_STREQ(marker(CellStatus::CompileError), "CE");
  EXPECT_STREQ(marker(CellStatus::RuntimeError), "RE");
  EXPECT_STREQ(marker(CellStatus::Crashed), "XX");
  // Labels round-trip through parse_status (journal decode path).
  for (const auto st : runtime::kAllStatuses) {
    runtime::CellStatus back{};
    ASSERT_TRUE(runtime::parse_status(runtime::to_string(st), &back));
    EXPECT_EQ(back, st);
  }
  runtime::CellStatus ignored{};
  EXPECT_FALSE(runtime::parse_status("segfault", &ignored));
  // No code produces a timeout any more, so its old label reads as
  // foreign.
  EXPECT_FALSE(runtime::parse_status("timeout", &ignored));
}

TEST(Taxonomy, CellErrorCarriesStatus) {
  const runtime::CellError e(runtime::CellStatus::Crashed, "boom");
  EXPECT_EQ(e.status(), runtime::CellStatus::Crashed);
  EXPECT_STREQ(e.what(), "boom");
}

// ---- fault plan ------------------------------------------------------------

TEST(FaultPlan, ParseAcceptsWellFormedSpecs) {
  const auto p = runtime::FaultPlan::parse("crash:0.05");
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->crash, 0.05);
  for (const char* edge : {"crash:0", "crash:1", "crash:1e-3"})
    EXPECT_TRUE(runtime::FaultPlan::parse(edge).has_value()) << edge;
  EXPECT_FALSE(runtime::FaultPlan::parse("crash:0")->enabled());
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  for (const char* bad :
       {"", "crash", "crash:", "crash:nan?", "crash:1.5", "crash:-0.1",
        "crash:0.1x", "segv:0.5", "CRASH:0.5", " crash:0.5"})
    EXPECT_FALSE(runtime::FaultPlan::parse(bad).has_value()) << bad;
}

TEST(FaultPlan, ParseRejectsTheRetiredFaultKinds) {
  // Crash is the one injected fault: the compile, runtime and hang
  // kinds are rejected alone and next to a crash rate.
  for (const char* retired :
       {"compile:0.05", "runtime:0.02", "hang:0.01", "hang:0",
        "compile:0.05,runtime:0.02,hang:0.01", "crash:0.1,hang:0.1",
        "runtime:0.1,crash:0.1", "crash:0.1,crash:0.2"})
    EXPECT_FALSE(runtime::FaultPlan::parse(retired).has_value()) << retired;
}

TEST(FaultPlan, CrashRateParsesAndRoundTrips) {
  const auto p = runtime::FaultPlan::parse("crash:0.25");
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->crash, 0.25);
  EXPECT_TRUE(p->enabled());
  // spec() round-trips through parse for every rate, bit for bit.
  for (const double rate : {0.0, 0.05, 0.1, 0.25, 0.3, 1.0 / 3, 0.999, 1.0,
                            1e-17}) {
    const runtime::FaultPlan plan{.crash = rate};
    const auto back = runtime::FaultPlan::parse(plan.spec());
    ASSERT_TRUE(back.has_value()) << plan.spec();
    EXPECT_EQ(back->crash, rate) << plan.spec();
  }
  EXPECT_EQ(runtime::FaultPlan{.crash = 0.1}.spec(), "crash:0.1");
}

TEST(FaultPlan, DecideIsDeterministicAndAttemptDependent) {
  const runtime::FaultPlan plan{.crash = 0.5};
  // Pure function of (seed, benchmark, compiler, attempt).
  for (int attempt = 0; attempt < 4; ++attempt) {
    EXPECT_EQ(plan.crashes(42, "2mm", "LLVM", attempt),
              plan.crashes(42, "2mm", "LLVM", attempt));
  }
  // Some cell must see a different decision on a different attempt —
  // that's what lets a re-leased cell survive.
  bool attempt_changes_something = false;
  bool cell_changes_something = false;
  const std::vector<std::string> benches = {"2mm", "3mm", "atax", "bicg",
                                            "mvt", "syrk", "trmm", "lu"};
  for (const auto& b : benches) {
    if (plan.crashes(42, b, "LLVM", 0) != plan.crashes(42, b, "LLVM", 1))
      attempt_changes_something = true;
    if (plan.crashes(42, b, "LLVM", 0) != plan.crashes(42, b, "GNU", 0))
      cell_changes_something = true;
  }
  EXPECT_TRUE(attempt_changes_something);
  EXPECT_TRUE(cell_changes_something);
}

TEST(FaultPlan, RateOneAlwaysFires) {
  const runtime::FaultPlan plan{.crash = 1.0};
  for (const char* b : {"2mm", "atax", "lu", "heat"})
    EXPECT_TRUE(plan.crashes(7, b, "FJtrad", 0));
  const runtime::FaultPlan off;
  EXPECT_FALSE(off.crashes(7, "2mm", "FJtrad", 0));
}

// Crash schedules are reproduced across builds (CI diffs crash-injected
// tables against clean ones, and a resumed shard directory re-leases at
// the generation its crash decision left it), so a drift in the hash
// behind FaultPlan::crashes would silently change which cells crash.
// The constants are the decisions at rate 0.3 as first computed.
TEST(FaultPlan, CrashDecisionsArePinned) {
  const runtime::FaultPlan plan{.crash = 0.3};
  const struct {
    std::uint64_t seed;
    const char* bench;
    const char* compiler;
    int attempt;
    bool crash;
  } pins[] = {
      {42, "k10", "LLVM", 0, true},
      {42, "k10", "LLVM", 1, true},
      {42, "syrk", "GNU", 0, true},
      {7, "gesummv", "LLVM+Polly", 3, true},
      {7, "miniamr", "LLVM", 3, true},
      {1, "atax", "FJclang", 12, true},
      {2026, "mvmc", "LLVM+Polly", 44, true},
      {42, "k01", "FJtrad", 0, false},
      {42, "2mm", "LLVM", 1, false},
      {42, "hpl", "FJclang", 7, false},
      {7, "deriche", "FJtrad", 3, false},
      {1, "wupwise", "FJtrad", 12, false},
      {2026, "hpl", "FJclang", 44, false},
  };
  for (const auto& pin : pins)
    EXPECT_EQ(plan.crashes(pin.seed, pin.bench, pin.compiler, pin.attempt),
              pin.crash)
        << pin.seed << " " << pin.bench << " x " << pin.compiler
        << " attempt " << pin.attempt;
  // And over the whole paper grid: how many of its 540 cells crash.
  const auto suite = kernels::all_benchmarks(0.05);
  const auto specs = compilers::paper_compilers();
  const auto crashing = [&](std::uint64_t seed, int attempt) {
    int n = 0;
    for (const auto& b : suite)
      for (const auto& s : specs) n += plan.crashes(seed, b.name(), s.name, attempt);
    return n;
  };
  EXPECT_EQ(crashing(42, 0), 164);
  EXPECT_EQ(crashing(7, 3), 170);
}

// ---- study under injection -------------------------------------------------

void expect_identical_cells(const report::Table& a, const report::Table& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].cells.size(), b.rows[r].cells.size());
    for (std::size_t c = 0; c < a.rows[r].cells.size(); ++c) {
      const auto& ca = a.rows[r].cells[c];
      const auto& cb = b.rows[r].cells[c];
      EXPECT_EQ(ca.status, cb.status) << a.rows[r].benchmark;
      EXPECT_EQ(ca.diagnostic, cb.diagnostic) << a.rows[r].benchmark;
      // Exact bit comparisons: determinism means not one ULP of drift.
      EXPECT_EQ(ca.best_seconds, cb.best_seconds) << a.rows[r].benchmark;
      EXPECT_EQ(ca.median_seconds, cb.median_seconds) << a.rows[r].benchmark;
      EXPECT_EQ(ca.cv, cb.cv) << a.rows[r].benchmark;
      EXPECT_EQ(ca.placement.ranks, cb.placement.ranks);
      EXPECT_EQ(ca.placement.threads, cb.placement.threads);
      EXPECT_EQ(ca.bottleneck, cb.bottleneck);
    }
  }
}

report::Table run_microkernels(core::StudyOptions opt) {
  opt.scale = 0.05;
  return core::Study(std::move(opt))
      .run_suite(kernels::microkernel_suite(0.05));
}

TEST(Injection, StudyCompletesAndIsWorkerCountInvariant) {
  core::StudyOptions base;
  base.faults.crash = 0.3;
  std::vector<report::Table> tables;
  for (const int jobs : {1, 2, 8}) {
    auto opt = base;
    opt.jobs = jobs;
    tables.push_back(run_microkernels(std::move(opt)));
  }
  // The injected study completed (we got tables at all) and produced
  // byte-identical outcomes — statuses, diagnostics and values — for
  // every worker count.
  expect_identical_cells(tables[0], tables[1]);
  expect_identical_cells(tables[0], tables[2]);
  // And it actually injected something.
  std::size_t injected = 0;
  for (const auto& row : tables[0].rows)
    for (const auto& cell : row.cells)
      if (cell.diagnostic.find("injected") != std::string::npos) ++injected;
  EXPECT_GT(injected, 0u);
}

TEST(Injection, InProcessCrashFaultsClassifyAndRetryLikeAnyFault) {
  // Without a worker process to kill, an injected crash classifies as
  // Crashed at performance run 5.  Evaluating the cell at the next
  // attempt — what a re-lease does — survives wherever that attempt's
  // decision does, with clean-run values bit-for-bit.
  core::StudyOptions flaky;
  flaky.faults.crash = 0.3;
  flaky.scale = 0.05;
  const auto suite = kernels::microkernel_suite(0.05);
  const auto once = core::Study(flaky).run_suite(suite);
  const auto clean = run_microkernels({});
  const core::Study next(flaky);
  std::size_t crashed = 0;
  std::size_t recovered = 0;
  for (std::size_t r = 0; r < once.rows.size(); ++r) {
    for (std::size_t c = 0; c < once.rows[r].cells.size(); ++c) {
      const auto& cell = once.rows[r].cells[c];
      if (cell.status != runtime::CellStatus::Crashed) continue;
      ++crashed;
      EXPECT_EQ(cell.diagnostic,
                "injected crash fault at performance run 5 (attempt 0)");
      runtime::RowMemo memo;
      const auto again = core::evaluate_cell(next.harness(), flaky, suite[r],
                                             flaky.compilers[c], memo, 1);
      if (!again.run.valid()) {
        EXPECT_EQ(again.run.diagnostic,
                  "injected crash fault at performance run 5 (attempt 1)");
        continue;
      }
      ++recovered;
      EXPECT_EQ(again.run.best_seconds, clean.rows[r].cells[c].best_seconds);
      EXPECT_EQ(again.run.median_seconds,
                clean.rows[r].cells[c].median_seconds);
    }
  }
  EXPECT_GT(crashed, 0u);
  EXPECT_GT(recovered, 0u);
}

// ---- journal ---------------------------------------------------------------

TEST(Journal, EncodeDecodeRoundTripsBitExactly) {
  const runtime::Harness h(machine::a64fx());
  const auto suite = kernels::polybench_suite(0.05);
  core::JournalEntry e;
  e.key = 0xDEADBEEFCAFE1234ULL;
  e.run = h.run(compilers::llvm12(), suite[0]);
  ASSERT_TRUE(e.run.valid());
  const auto back = core::Journal::decode(core::Journal::encode(e));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->key, e.key);
  EXPECT_EQ(back->run.benchmark, e.run.benchmark);
  EXPECT_EQ(back->run.compiler, e.run.compiler);
  EXPECT_EQ(back->run.status, e.run.status);
  EXPECT_EQ(back->run.best_seconds, e.run.best_seconds);  // bit-exact
  EXPECT_EQ(back->run.median_seconds, e.run.median_seconds);
  EXPECT_EQ(back->run.cv, e.run.cv);
  EXPECT_EQ(back->run.placement.ranks, e.run.placement.ranks);
  EXPECT_EQ(back->run.placement.threads, e.run.placement.threads);
  EXPECT_EQ(back->run.bottleneck, e.run.bottleneck);
  EXPECT_EQ(back->run.gflops, e.run.gflops);
  EXPECT_EQ(back->run.mem_gbs, e.run.mem_gbs);
}

TEST(Journal, EncodesFailedCellsWithDiagnostics) {
  core::JournalEntry e;
  e.key = 7;
  e.run.benchmark = "k22";
  e.run.compiler = "LLVM";
  e.run.status = runtime::CellStatus::CompileError;
  e.run.diagnostic = "quirk: \"ICE\" \\ backslash";
  const auto back = core::Journal::decode(core::Journal::encode(e));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->run.status, runtime::CellStatus::CompileError);
  EXPECT_EQ(back->run.diagnostic, e.run.diagnostic);
  EXPECT_FALSE(back->run.valid());
}

TEST(Journal, DecodeRejectsTornAndForeignLines) {
  EXPECT_FALSE(core::Journal::decode("").has_value());
  EXPECT_FALSE(core::Journal::decode("not json").has_value());
  EXPECT_FALSE(core::Journal::decode("{\"key\":\"zz\"}").has_value());
  // A torn write: valid prefix, cut mid-string.
  core::JournalEntry e;
  e.key = 9;
  e.run.benchmark = "2mm";
  e.run.compiler = "GNU";
  e.run.status = runtime::CellStatus::RuntimeError;
  e.run.diagnostic = "boom";
  std::string line = core::Journal::encode(e);
  EXPECT_TRUE(core::Journal::decode(line).has_value());
  EXPECT_FALSE(core::Journal::decode(line.substr(0, line.size() / 2)).has_value());
}

TEST(Journal, LoadSkipsTornLinesAndFindsEntries) {
  const std::string path = testing::TempDir() + "a64fxcc_journal_torn.jsonl";
  std::remove(path.c_str());
  core::JournalEntry e;
  e.key = 11;
  e.run.benchmark = "atax";
  e.run.compiler = "Arm";
  e.run.status = runtime::CellStatus::Crashed;
  e.run.diagnostic = "synthetic";
  {
    std::ofstream f(path);
    f << core::Journal::encode(e) << "\n";
    f << "garbage line\n";
    f << core::Journal::encode(e).substr(0, 20);  // torn tail, no newline
  }
  core::Journal j;
  EXPECT_EQ(j.load(path), 1u);
  ASSERT_NE(j.find(11), nullptr);
  EXPECT_EQ(j.find(11)->diagnostic, "synthetic");
  EXPECT_EQ(j.find(12), nullptr);
  std::remove(path.c_str());
}

TEST(Journal, ResumeOpenTerminatesATornTailBeforeRecording) {
  const std::string path = testing::TempDir() + "a64fxcc_journal_resume.jsonl";
  std::remove(path.c_str());
  core::JournalEntry first;
  first.key = 31;
  first.run.benchmark = "atax";
  first.run.compiler = "GNU";
  first.run.status = runtime::CellStatus::RuntimeError;
  first.run.diagnostic = "first";
  core::JournalEntry second = first;
  second.key = 32;
  second.run.diagnostic = "second";
  const std::string fragment = core::Journal::encode(second).substr(0, 30);
  {
    std::ofstream f(path, std::ios::binary);
    f << core::Journal::encode(first) << "\n" << fragment;  // died mid-line
  }
  // A writer that opens a file a dead writer tore: load it, then open
  // it and record.
  core::Journal resumed;
  EXPECT_EQ(resumed.load(path), 1u);
  ASSERT_TRUE(resumed.open(path));
  resumed.record(second);
  resumed.close();
  core::Journal fresh;
  EXPECT_EQ(fresh.load(path), 2u);
  ASSERT_NE(fresh.find(31), nullptr);
  ASSERT_NE(fresh.find(32), nullptr);
  EXPECT_EQ(fresh.find(32)->diagnostic, "second");
  // The fragment kept a line of its own instead of swallowing the record.
  std::ifstream f(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(f, line);) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{core::Journal::encode(first),
                                             fragment,
                                             core::Journal::encode(second)}));
  std::remove(path.c_str());
}

TEST(Journal, RecordReportsAFailedAppend) {
  // A distrib worker completes a row's leases only after its shard
  // lines reached the file, so record() must say when they did not.
  core::JournalEntry e;
  e.key = 41;
  e.run.benchmark = "atax";
  e.run.compiler = "GNU";
  e.run.status = runtime::CellStatus::RuntimeError;
  e.run.diagnostic = "recorded";
  {
    core::Journal full;  // every write fails with ENOSPC
    if (!full.open("/dev/full")) GTEST_SKIP() << "cannot open /dev/full";
    EXPECT_FALSE(full.record(e));
    EXPECT_FALSE(full.record(std::vector<core::JournalEntry>{e, e}));
  }
  const std::string path = testing::TempDir() + "a64fxcc_journal_record.jsonl";
  std::remove(path.c_str());
  core::Journal j;
  EXPECT_FALSE(j.record(e));  // not open
  ASSERT_TRUE(j.open(path));
  EXPECT_TRUE(j.record(e));
  EXPECT_TRUE(j.record(std::vector<core::JournalEntry>{}));
  j.close();
  core::Journal back;
  EXPECT_EQ(back.load(path), 1u);
  std::remove(path.c_str());
}

TEST(Journal, MissingFileLoadsZeroEntries) {
  core::Journal j;
  EXPECT_EQ(j.load(testing::TempDir() + "a64fxcc_no_such_journal.jsonl"), 0u);
  EXPECT_EQ(j.size(), 0u);
}

TEST(Journal, LoadDedupesDuplicateKeysLastCompleteLineWins) {
  const std::string path = testing::TempDir() + "a64fxcc_journal_dup.jsonl";
  std::remove(path.c_str());
  core::JournalEntry first;
  first.key = 21;
  first.run.benchmark = "atax";
  first.run.compiler = "GNU";
  first.run.status = runtime::CellStatus::RuntimeError;
  first.run.diagnostic = "first";
  core::JournalEntry second = first;
  second.run.diagnostic = "second";
  {
    std::ofstream f(path);
    f << core::Journal::encode(first) << "\n";
    f << core::Journal::encode(second) << "\n";
  }
  // One distinct key: the later line deterministically overwrote the
  // earlier one, and the overwrite is reported via the out-param.
  core::Journal j;
  std::size_t deduped = 0;
  EXPECT_EQ(j.load(path, &deduped), 1u);
  EXPECT_EQ(deduped, 1u);
  EXPECT_EQ(j.size(), 1u);
  ASSERT_NE(j.find(21), nullptr);
  EXPECT_EQ(j.find(21)->diagnostic, "second");
  // Duplicates across load() calls count too (the shard-merge path):
  // the second load adds no distinct keys and overwrites twice more.
  core::Journal merged;
  std::size_t dd = 0;
  EXPECT_EQ(merged.load(path, &dd), 1u);
  EXPECT_EQ(merged.load(path, &dd), 0u);
  EXPECT_EQ(dd, 3u);
  EXPECT_EQ(merged.find(21)->diagnostic, "second");
  std::remove(path.c_str());
}

TEST(Journal, CellKeySeesSeedSpecKernelAndQuirks) {
  const auto suite = kernels::polybench_suite(0.05);
  const auto big = kernels::polybench_suite(0.1);
  const auto spec = compilers::llvm12();
  const auto base = core::Journal::cell_key(42, spec, suite[0].kernel, true);
  EXPECT_EQ(core::Journal::cell_key(42, spec, suite[0].kernel, true), base);
  EXPECT_NE(core::Journal::cell_key(43, spec, suite[0].kernel, true), base);
  EXPECT_NE(core::Journal::cell_key(42, compilers::gnu(), suite[0].kernel, true),
            base);
  EXPECT_NE(core::Journal::cell_key(42, spec, suite[1].kernel, true), base);
  EXPECT_NE(core::Journal::cell_key(42, spec, big[0].kernel, true), base);
  EXPECT_NE(core::Journal::cell_key(42, spec, suite[0].kernel, false), base);
}

// v3 journals, shard directories and lease logs resume by these keys, so
// a drift in any fingerprint behind Journal::cell_key would silently
// stop resume from matching -- a drift that comparing keys with each
// other (above) cannot see.  The constants are seed 42's keys as first
// persisted: the first, a library-heavy and the last paper benchmark
// under each paper compiler, quirks on and off.
TEST(Journal, CellKeysArePinned) {
  const auto suite = kernels::all_benchmarks(1.0);
  const auto specs = compilers::paper_compilers();
  ASSERT_EQ(suite.front().name(), "k01");
  ASSERT_EQ(suite.back().name(), "wupwise");
  const struct {
    const char* bench;
    const char* compiler;
    bool quirks;
    std::uint64_t key;
  } pins[] = {
      {"k01", "FJtrad", true, 0xbb61e320d6feb3ceULL},
      {"k01", "FJtrad", false, 0x0797701195e030b8ULL},
      {"k01", "FJclang", true, 0xdd5e0401a1202f60ULL},
      {"k01", "FJclang", false, 0x61a89730e23eac16ULL},
      {"k01", "LLVM", true, 0x45b9dfee1cd8b3edULL},
      {"k01", "LLVM", false, 0xf94f4cdf5fc6309bULL},
      {"k01", "LLVM+Polly", true, 0x934212e7eff629a5ULL},
      {"k01", "LLVM+Polly", false, 0x2fb481d6ace8aad3ULL},
      {"k01", "GNU", true, 0x98c3243d29475781ULL},
      {"k01", "GNU", false, 0x2435b70c6a59d4f7ULL},
      {"hpl", "FJtrad", true, 0x28a34e89eddc5444ULL},
      {"hpl", "FJtrad", false, 0x2ecb90639875cb60ULL},
      {"hpl", "FJclang", true, 0x4e9ca9a89a02c8eaULL},
      {"hpl", "FJclang", false, 0x48f47742efab57ceULL},
      {"hpl", "LLVM", true, 0xd67b724727fa5467ULL},
      {"hpl", "LLVM", false, 0xd013acad5253cb43ULL},
      {"hpl", "LLVM+Polly", true, 0x0080bf4ed4d4ce2fULL},
      {"hpl", "LLVM+Polly", false, 0x06e861a4a17d510bULL},
      {"hpl", "GNU", true, 0x0b0189941265b00bULL},
      {"hpl", "GNU", false, 0x0d69577e67cc2f2fULL},
      {"wupwise", "FJtrad", true, 0xdb512e6079223ef8ULL},
      {"wupwise", "FJtrad", false, 0x16da8d94b49bb7f5ULL},
      {"wupwise", "FJclang", true, 0xbd6ec9410efca256ULL},
      {"wupwise", "FJclang", false, 0x70e56ab5c3452b5bULL},
      {"wupwise", "LLVM", true, 0x258912aeb3043edbULL},
      {"wupwise", "LLVM", false, 0xe802b15a7ebdb7d6ULL},
      {"wupwise", "LLVM+Polly", true, 0xf372dfa7402aa493ULL},
      {"wupwise", "LLVM+Polly", false, 0x3ef97c538d932d9eULL},
      {"wupwise", "GNU", true, 0xf8f3e97d869bdab7ULL},
      {"wupwise", "GNU", false, 0x35784a894b2253baULL},
  };
  for (const auto& pin : pins) {
    const auto bench =
        std::find_if(suite.begin(), suite.end(),
                     [&](const auto& b) { return b.name() == pin.bench; });
    const auto spec =
        std::find_if(specs.begin(), specs.end(),
                     [&](const auto& s) { return s.name == pin.compiler; });
    ASSERT_NE(bench, suite.end()) << pin.bench;
    ASSERT_NE(spec, specs.end()) << pin.compiler;
    const std::string what = std::string(pin.bench) + " x " + pin.compiler +
                             (pin.quirks ? " quirks on" : " quirks off");
    EXPECT_EQ(core::Journal::cell_key(42, *spec, bench->kernel, pin.quirks),
              pin.key)
        << what;
    // The study paths key by the fingerprint the Benchmark carries.
    EXPECT_EQ(core::Journal::cell_key(42, *spec, bench->fingerprint(),
                                      pin.quirks),
              pin.key)
        << what;
  }
}

TEST(Journal, LinesCarryTheFormatVersionTag) {
  core::JournalEntry e;
  e.key = 1;
  e.run.benchmark = "2mm";
  e.run.compiler = "LLVM";
  e.run.status = runtime::CellStatus::CompileError;
  e.run.diagnostic = "x";
  const auto line = core::Journal::encode(e);
  char tag[24];
  std::snprintf(tag, sizeof tag, "{\"v\":%d,", core::kJournalFormatVersion);
  EXPECT_EQ(line.rfind(tag, 0), 0u) << line;
}

TEST(Journal, DecisionsFieldRoundTrips) {
  core::JournalEntry e;
  e.key = 2;
  e.run.benchmark = "2mm";
  e.run.compiler = "LLVM";
  e.run.status = runtime::CellStatus::CompileError;
  e.run.diagnostic = "quirk";
  e.run.decisions = "interchange+,tile-,vectorize+,fuse-,polly-";
  const auto back = core::Journal::decode(core::Journal::encode(e));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->run.decisions, e.run.decisions);
  // Empty provenance is omitted from the line and restores as empty.
  e.run.decisions.clear();
  const auto line = core::Journal::encode(e);
  EXPECT_EQ(line.find("decisions"), std::string::npos);
  ASSERT_TRUE(core::Journal::decode(line).has_value());
  EXPECT_TRUE(core::Journal::decode(line)->run.decisions.empty());
}

TEST(Journal, OlderFormatVersionsAreSkipped) {
  // v1 (untagged) and v2 lines were measured with an older noise
  // generator: well-formed as they are, they must not decode, so they
  // can never resume into a table of this build.
  const std::string v1 =
      "{\"key\":\"000000000000000b\",\"benchmark\":\"atax\","
      "\"compiler\":\"Arm\",\"status\":\"crash\",\"diagnostic\":\"old\"}";
  EXPECT_FALSE(core::Journal::decode(v1).has_value());
  const std::string v2 = "{\"v\":2," + v1.substr(1);
  EXPECT_FALSE(core::Journal::decode(v2).has_value());
  char tag[16];
  std::snprintf(tag, sizeof tag, "{\"v\":%d,", core::kJournalFormatVersion);
  EXPECT_TRUE(core::Journal::decode(tag + v1.substr(1)).has_value());
}

TEST(Journal, FutureFormatVersionsAreRejectedNotHalfParsed) {
  core::JournalEntry e;
  e.key = 3;
  e.run.benchmark = "2mm";
  e.run.compiler = "GNU";
  e.run.status = runtime::CellStatus::RuntimeError;
  e.run.diagnostic = "x";
  std::string line = core::Journal::encode(e);
  char cur[16], next[16];
  std::snprintf(cur, sizeof cur, "\"v\":%d", core::kJournalFormatVersion);
  std::snprintf(next, sizeof next, "\"v\":%d", core::kJournalFormatVersion + 1);
  ASSERT_NE(line.find(cur), std::string::npos);
  line.replace(line.find(cur), std::string(cur).size(), next);
  EXPECT_FALSE(core::Journal::decode(line).has_value());
}

TEST(Journal, RetiredFaultLinesDoNotDecode) {
  // Current-format lines that older builds wrote for failures a re-run
  // clears: the retired timeout status, and the retired compile and
  // runtime fault kinds.  None may decode, so a resume reopens their
  // cells instead of restoring the failure.  Quirk failures and the
  // injected crash, which the study still produces, decode.
  const auto line = [](const char* status, const char* diagnostic) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"v\":%d,\"key\":\"00000000000000a1\",\"benchmark\":"
                  "\"k02\",\"compiler\":\"GNU\",\"status\":\"%s\","
                  "\"diagnostic\":\"%s\"}",
                  core::kJournalFormatVersion, status, diagnostic);
    return std::string(buf);
  };
  EXPECT_FALSE(core::Journal::decode(
                   line("timeout", "deadline of 30s exceeded (attempt 0)"))
                   .has_value());
  EXPECT_FALSE(core::Journal::decode(
                   line("compiler error", "injected compile fault (attempt 0)"))
                   .has_value());
  EXPECT_FALSE(
      core::Journal::decode(
          line("runtime error",
               "injected runtime fault at performance run 5 (attempt 0)"))
          .has_value());
  const auto quirk = core::Journal::decode(
      line("compiler error", "compiler error on Kernel 22 (Fig. 2 note)"));
  ASSERT_TRUE(quirk.has_value());
  EXPECT_EQ(quirk->run.status, runtime::CellStatus::CompileError);
  const auto crash = core::Journal::decode(
      line("crash", "injected crash fault at performance run 5 (attempt 0)"));
  ASSERT_TRUE(crash.has_value());
  EXPECT_EQ(crash->run.status, runtime::CellStatus::Crashed);
  EXPECT_EQ(crash->key, 0xa1u);
}

TEST(Journal, OlderFormatJournalFileResumesNothing) {
  const std::string path = testing::TempDir() + "a64fxcc_journal_v1.jsonl";
  std::remove(path.c_str());
  {
    std::ofstream f(path);
    f << "{\"key\":\"0000000000000015\",\"benchmark\":\"bicg\","
         "\"compiler\":\"GNU\",\"status\":\"runtime error\","
         "\"diagnostic\":\"legacy\"}\n";
    f << "{\"v\":2,\"key\":\"0000000000000016\",\"benchmark\":\"bicg\","
         "\"compiler\":\"LLVM\",\"status\":\"runtime error\","
         "\"diagnostic\":\"legacy\"}\n";
  }
  core::Journal j;
  EXPECT_EQ(j.load(path), 0u);
  EXPECT_EQ(j.find(0x15), nullptr);
  EXPECT_EQ(j.find(0x16), nullptr);
  std::remove(path.c_str());
}

}  // namespace
