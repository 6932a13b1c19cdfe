// Heap allocations per layer of a cold paper-scale study: the whole
// study, its 540 compiles and its 356 distinct plans, plus the durable
// logs' line codec over that study's 540 journal lines and 1,080 lease
// lines (what a `--procs` run writes and reads back).  This binary
// replaces the global operator new with a counter over std::malloc and
// counts only inside count_allocs() windows, so nothing in the library
// becomes a knob.  Each budget sits at most 10% above the count of the
// change that set it (printed on every run): a layer that starts
// allocating again on its hot path fails here.
//
// The counts are a pure function of the code (identical for every seed
// tried and at every optimization level), so a budget is exact work,
// not a timing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "compilers/compile_cache.hpp"
#include "core/journal.hpp"
#include "core/study.hpp"
#include "distrib/work_queue.hpp"
#include "perf/plan.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_malloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form, so no block allocated here is freed by a
// sanitizer runtime's own operator delete (or the other way round).
void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace a64fxcc;

struct Count {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Allocations made by `fn` on any thread.
template <class Fn>
Count count_allocs(const char* what, Fn&& fn) {
  g_allocs.store(0);
  g_bytes.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  const Count c{g_allocs.load(), g_bytes.load()};
  std::printf("[ allocs   ] %s: %llu allocations, %llu bytes\n", what,
              static_cast<unsigned long long>(c.allocs),
              static_cast<unsigned long long>(c.bytes));
  return c;
}

TEST(Allocations, ColdPaperStudy) {
  const auto suite = kernels::all_benchmarks(1.0);
  core::StudyOptions opt;
  opt.scale = 1.0;
  opt.seed = 42;
  opt.jobs = 1;
  core::Study study(std::move(opt));
  report::Table table;
  const Count c = count_allocs("seed-42 paper-scale study, jobs=1",
                               [&] { table = study.run_suite(suite); });
  EXPECT_EQ(table.rows.size(), suite.size());
  EXPECT_LE(c.allocs, 206'000u);
}

TEST(Allocations, PaperCompiles) {
  const auto suite = kernels::all_benchmarks(1.0);
  const auto specs = compilers::paper_compilers();
  std::vector<compilers::CompileOutcome> outs;
  outs.reserve(suite.size() * specs.size());
  const Count c = count_allocs("540 compilers::compile calls", [&] {
    for (const auto& bench : suite)
      for (const auto& spec : specs)
        outs.push_back(compilers::compile(spec, bench.kernel));
  });
  EXPECT_EQ(outs.size(), 540u);
  EXPECT_LE(c.allocs, 167'000u);
}

TEST(Allocations, DistinctPlans) {
  // The study's plan misses: one perf::analyze per distinct compiled
  // kernel, keyed as the estimate cache keys it.
  const auto m = machine::a64fx();
  compilers::CompileCache cache;
  std::set<std::uint64_t> seen;
  std::vector<std::shared_ptr<const compilers::CompileOutcome>> distinct;
  for (const auto& bench : kernels::all_benchmarks(1.0)) {
    for (const auto& spec : compilers::paper_compilers()) {
      auto out = cache.get_or_compile(spec, bench.kernel, bench.fingerprint())
                     .outcome;
      if (out->ok() && seen.insert(out->kernel_fingerprint).second)
        distinct.push_back(std::move(out));
    }
  }
  ASSERT_EQ(distinct.size(), 356u);
  std::vector<perf::KernelPlan> plans;
  plans.reserve(distinct.size());
  const Count c = count_allocs("356 perf::analyze(k, m, key) calls", [&] {
    for (const auto& out : distinct)
      plans.push_back(perf::analyze(
          *out->kernel, m, perf::plan_fingerprint(out->kernel_fingerprint, m)));
  });
  EXPECT_EQ(plans.size(), 356u);
  EXPECT_LE(c.allocs, 23'900u);
}

/// The seed-42 paper-scale table's 540 journal lines, and one lease and
/// one done line per cell: the lines a `--procs` study's shards and lease
/// log hold, built in process.
struct PaperLines {
  std::vector<core::JournalEntry> entries;
  std::vector<std::string> journal;
  std::vector<std::string> leases;
};

const PaperLines& paper_lines() {
  static const PaperLines lines = [] {
    const auto suite = kernels::all_benchmarks(1.0);
    core::StudyOptions opt;
    opt.scale = 1.0;
    opt.seed = 42;
    opt.jobs = 1;
    const report::Table table = core::Study(opt).run_suite(suite);
    PaperLines l;
    for (std::size_t r = 0; r < suite.size(); ++r) {
      for (std::size_t c = 0; c < opt.compilers.size(); ++c) {
        const std::uint64_t key =
            core::Journal::cell_key(opt.seed, opt.compilers[c],
                                    suite[r].fingerprint(), opt.apply_quirks);
        l.entries.push_back({key, table.rows[r].cells[c]});
        l.journal.push_back(core::Journal::encode(l.entries.back()));
        using Op = distrib::LeaseRecord::Op;
        l.leases.push_back(distrib::LeaseQueue::encode(
            {Op::Lease, key, 4242, 0, 3522.867064023}));
        l.leases.push_back(
            distrib::LeaseQueue::encode({Op::Done, key, 4242, 0, 0}));
      }
    }
    return l;
  }();
  return lines;
}

TEST(Allocations, JournalEncode) {
  const PaperLines& l = paper_lines();
  std::vector<std::string> lines;
  lines.reserve(l.entries.size());
  const Count c = count_allocs("540 core::Journal::encode calls", [&] {
    for (const core::JournalEntry& e : l.entries)
      lines.push_back(core::Journal::encode(e));
  });
  EXPECT_EQ(lines, l.journal);
  EXPECT_LE(c.allocs, 594u);
}

TEST(Allocations, JournalDecode) {
  const PaperLines& l = paper_lines();
  std::size_t decoded = 0;
  const Count c = count_allocs("540 core::Journal::decode calls", [&] {
    for (const std::string& line : l.journal)
      if (core::Journal::decode(line).has_value()) ++decoded;
  });
  EXPECT_EQ(decoded, 540u);
  EXPECT_LE(c.allocs, 594u);
}

TEST(Allocations, LeaseDecode) {
  const PaperLines& l = paper_lines();
  std::size_t decoded = 0;
  const Count c = count_allocs("1080 distrib::LeaseQueue::decode calls", [&] {
    for (const std::string& line : l.leases)
      if (distrib::LeaseQueue::decode(line).has_value()) ++decoded;
  });
  EXPECT_EQ(decoded, 1080u);
  EXPECT_EQ(c.allocs, 0u);
}

}  // namespace
