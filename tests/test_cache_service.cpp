// Unified cache tier (cache::ShardedMap + cache::Service):
//
//  - map mechanics: lock-free hits, first-insertion-wins races, epoch
//    invalidation without a stop-the-world clear, the max_entries
//    backstop, and the *deterministic* (fingerprint-ordered) eviction
//    sweep;
//  - service mechanics: named instances shared by name, type-checked
//    re-registration, weight-split budgets, one epoch for every cache,
//    byte-size parsing and the stats table;
//  - study-level byte identity (the acceptance criterion): a tight
//    --cache-budget that demonstrably evicts produces tables
//    byte-identical to an unbounded cold run, at 1/2/8 workers and
//    under fault injection;
//  - warm reuse: two studies on one Service share compile-cache entries
//    and still render identical tables.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/service.hpp"
#include "cache/sharded_map.hpp"
#include "core/study.hpp"
#include "exec/events.hpp"
#include "kernels/benchmark.hpp"
#include "obs/metrics.hpp"
#include "report/explain.hpp"
#include "report/figure2.hpp"

namespace {

using namespace a64fxcc;

using TestMap = cache::ShardedMap<std::uint64_t, int>;

std::shared_ptr<const int> val(int v) { return std::make_shared<const int>(v); }

// ---- ShardedMap mechanics ----

TEST(ShardedMap, MissThenPublishThenHit) {
  TestMap m("t");
  EXPECT_EQ(m.find(7, 7), nullptr);
  const auto pub = m.publish(7, 7, val(42), 10);
  EXPECT_TRUE(pub.inserted);
  EXPECT_EQ(*pub.value, 42);
  const auto hit = m.find(7, 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);
  const auto st = m.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, 10u);
}

TEST(ShardedMap, FirstInsertionWinsRepublish) {
  TestMap m("t");
  // Two racing lookups both miss before either publishes.
  EXPECT_EQ(m.find(7, 7), nullptr);
  EXPECT_EQ(m.find(7, 7), nullptr);
  const auto first = m.publish(7, 7, val(1), 8);
  const auto second = m.publish(7, 7, val(2), 8);
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(first.lost_race);
  EXPECT_FALSE(second.inserted);
  EXPECT_TRUE(second.lost_race);
  // The loser is handed the resident (first) value, so racing callers
  // agree on one object, and its lookup is recounted as a hit.
  EXPECT_EQ(*second.value, 1);
  EXPECT_EQ(m.stats().entries, 1u);
  EXPECT_EQ(m.stats().bytes, 8u);
  EXPECT_EQ(m.stats().misses, 1u);
  EXPECT_EQ(m.stats().hits, 1u);
}

TEST(ShardedMap, EpochBumpInvalidatesWithoutClear) {
  TestMap m("t");
  m.publish(7, 7, val(1), 8);
  ASSERT_NE(m.find(7, 7), nullptr);
  m.bump_epoch();
  EXPECT_EQ(m.find(7, 7), nullptr) << "stale epoch must read as a miss";
  // Republishing under the new epoch refreshes the slot in place and
  // reclaims the stale value's bytes.
  const auto pub = m.publish(7, 7, val(2), 16);
  EXPECT_TRUE(pub.inserted);
  EXPECT_EQ(pub.evicted, 1u);
  const auto hit = m.find(7, 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 2);
  EXPECT_EQ(m.stats().entries, 1u);
  EXPECT_EQ(m.stats().bytes, 16u);
}

TEST(ShardedMap, EvictionDropsHighestFingerprintFirst) {
  // One shard so the whole budget is one share and the sweep sees every
  // entry.
  TestMap m("t", {.shards = 1, .budget_bytes = 100});
  EXPECT_TRUE(m.publish(1, 1, val(1), 40).inserted);
  EXPECT_TRUE(m.publish(2, 2, val(2), 40).inserted);
  EXPECT_EQ(m.stats().evictions, 0u) << "80 <= 100: no sweep yet";
  // 120 > 100: the sweep drops descending by fingerprint until it fits —
  // exactly the newly published fp=3, regardless of insertion order.
  const auto pub = m.publish(3, 3, val(3), 40);
  EXPECT_TRUE(pub.inserted);
  EXPECT_EQ(pub.evicted, 1u);
  EXPECT_NE(m.find(1, 1), nullptr);
  EXPECT_NE(m.find(2, 2), nullptr);
  EXPECT_EQ(m.find(3, 3), nullptr);
  EXPECT_EQ(m.stats().entries, 2u);
  EXPECT_EQ(m.stats().bytes, 80u);
}

TEST(ShardedMap, SweepReclaimsStaleEpochsBeforeLiveValues) {
  TestMap m("t", {.shards = 1, .budget_bytes = 100});
  m.publish(9, 9, val(9), 60);  // will go stale
  m.bump_epoch();
  m.publish(1, 1, val(1), 60);  // 120 accounted > 100: sweep runs
  // The stale fp=9 is reclaimed first; the live fp=1 then fits alone.
  EXPECT_NE(m.find(1, 1), nullptr);
  EXPECT_EQ(m.stats().entries, 1u);
  EXPECT_EQ(m.stats().bytes, 60u);
}

TEST(ShardedMap, MaxEntriesBackstopServesWithoutCaching) {
  TestMap m("t", {.max_entries = 2});
  EXPECT_TRUE(m.publish(1, 1, val(1), 8).inserted);
  EXPECT_TRUE(m.publish(2, 2, val(2), 8).inserted);
  const auto pub = m.publish(3, 3, val(3), 8);
  EXPECT_FALSE(pub.inserted);
  ASSERT_NE(pub.value, nullptr);
  EXPECT_EQ(*pub.value, 3) << "the caller still gets its value";
  EXPECT_EQ(m.find(3, 3), nullptr);
  EXPECT_EQ(m.stats().entries, 2u);
}

TEST(ShardedMap, DropValuesKeepsHitMissHistory) {
  TestMap m("t");
  m.publish(7, 7, val(1), 8);
  (void)m.find(7, 7);
  m.drop_values();
  EXPECT_EQ(m.find(7, 7), nullptr);
  const auto st = m.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.evictions, 1u);
}

TEST(ShardedMap, ConcurrentPublishAndFindAgreeOnOneValue) {
  // Hammer a handful of hot keys from many threads; every winner must
  // serve the same resident value per key (run under ASan+UBSan in CI).
  TestMap m("t");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 16;
  std::atomic<int> disagreements{0};
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&m, &disagreements] {
      for (int round = 0; round < 200; ++round)
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          auto v = m.find(k, k);
          if (v == nullptr) v = m.publish(k, k, val(int(k)), 8).value;
          if (*v != int(k)) disagreements.fetch_add(1);
        }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(disagreements.load(), 0);
  EXPECT_EQ(m.stats().entries, kKeys);
  // Lost publish races count as hits: one miss per key, however the
  // threads interleaved.
  EXPECT_EQ(m.stats().misses, kKeys);
  EXPECT_EQ(m.stats().hits + m.stats().misses, kThreads * 200 * kKeys);
}

// ---- Service mechanics ----

TEST(CacheService, SameNameSharesOneInstanceAndChecksTypes) {
  cache::Service svc;
  auto& a = svc.get_or_create<std::uint64_t, int>("x");
  auto& b = svc.get_or_create<std::uint64_t, int>("x");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW((svc.get_or_create<std::uint64_t, double>("x")),
               std::logic_error);
}

TEST(CacheService, BudgetSplitsByWeightAndResplitsOnSet) {
  cache::Service svc(800);
  auto& heavy = svc.get_or_create<std::uint64_t, int>("heavy", 3);
  auto& light = svc.get_or_create<std::uint64_t, int>("light", 1);
  EXPECT_EQ(heavy.budget(), 600u);
  EXPECT_EQ(light.budget(), 200u);
  svc.set_budget(80);
  EXPECT_EQ(heavy.budget(), 60u);
  EXPECT_EQ(light.budget(), 20u);
  svc.set_budget(0);
  EXPECT_EQ(heavy.budget(), 0u) << "0 = unbounded, not zero-capacity";
}

TEST(CacheService, OneEpochInvalidatesEveryCache) {
  cache::Service svc;
  auto& a = svc.get_or_create<std::uint64_t, int>("a");
  auto& b = svc.get_or_create<std::uint64_t, int>("b");
  a.publish(1, 1, val(1), 8);
  b.publish(2, 2, val(2), 8);
  svc.bump_epoch();
  EXPECT_EQ(a.find(1, 1), nullptr);
  EXPECT_EQ(b.find(2, 2), nullptr);
  EXPECT_EQ(svc.epoch(), 1u);
}

TEST(CacheService, StatsAndTextCoverEveryRegisteredCache) {
  cache::Service svc(1024);
  auto& a = svc.get_or_create<std::uint64_t, int>("alpha");
  a.publish(1, 1, val(1), 8);
  (void)a.find(1, 1);
  svc.get_or_create<std::uint64_t, int>("beta");
  const auto all = svc.stats();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "alpha");
  EXPECT_EQ(all[0].stats.hits, 1u);
  EXPECT_EQ(all[1].name, "beta");
  const std::string text = svc.stats_text();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
}

TEST(CacheService, ParseByteSizeAcceptsSuffixesRejectsJunk) {
  using cache::parse_byte_size;
  EXPECT_EQ(parse_byte_size("0"), std::size_t{0});
  EXPECT_EQ(parse_byte_size("131072"), std::size_t{131072});
  EXPECT_EQ(parse_byte_size("64K"), std::size_t{64} << 10);
  EXPECT_EQ(parse_byte_size("64M"), std::size_t{64} << 20);
  EXPECT_EQ(parse_byte_size("2G"), std::size_t{2} << 30);
  EXPECT_FALSE(parse_byte_size("").has_value());
  EXPECT_FALSE(parse_byte_size("-1").has_value());
  EXPECT_FALSE(parse_byte_size("12Q").has_value());
  EXPECT_FALSE(parse_byte_size("K").has_value());
  EXPECT_FALSE(parse_byte_size("999999999999999999G").has_value());
}

// ---- study-level byte identity (the acceptance criterion) ----

std::vector<kernels::Benchmark> small_suite() {
  auto suite = kernels::polybench_suite(0.03);
  auto micro = kernels::microkernel_suite(0.03);
  for (std::size_t i = 0; i < 4 && i < micro.size(); ++i)
    suite.push_back(std::move(micro[i]));
  return suite;
}

// A budget this tight forces heavy eviction at scale 0.03 (asserted
// below), yet must not change a single output byte.
constexpr std::size_t kTightBudget = 16 << 10;

report::Table run_table(int jobs, std::size_t budget_bytes, const char* faults,
                        std::uint64_t* evictions = nullptr) {
  core::StudyOptions opt;
  opt.scale = 0.03;
  opt.jobs = jobs;
  opt.cache_budget_bytes = budget_bytes;
  if (faults != nullptr) {
    const auto plan = runtime::FaultPlan::parse(faults);
    EXPECT_TRUE(plan.has_value());
    opt.faults = *plan;
    opt.max_retries = 2;
  }
  const core::Study study(std::move(opt));
  auto t = study.run_suite(small_suite());
  if (evictions != nullptr) {
    *evictions = 0;
    for (const auto& c : study.cache_service().stats())
      *evictions += c.stats.evictions;
  }
  return t;
}

TEST(CacheServiceIdentity, TightBudgetTablesByteIdenticalAcrossWorkers) {
  const auto reference = run_table(1, 0, nullptr);
  const std::string ref_csv = report::render_csv(reference);
  const std::string ref_json = report::render_json(reference);
  const std::string ref_decisions = report::render_decisions_csv(reference);
  for (const int jobs : {1, 2, 8}) {
    std::uint64_t evictions = 0;
    const auto t = run_table(jobs, kTightBudget, nullptr, &evictions);
    EXPECT_GT(evictions, 0u)
        << "budget must actually evict or the test proves nothing (jobs="
        << jobs << ")";
    EXPECT_EQ(report::render_csv(t), ref_csv) << "jobs=" << jobs;
    EXPECT_EQ(report::render_json(t), ref_json) << "jobs=" << jobs;
    EXPECT_EQ(report::render_decisions_csv(t), ref_decisions)
        << "jobs=" << jobs;
  }
}

TEST(CacheServiceIdentity, TightBudgetTablesByteIdenticalUnderFaults) {
  const char* kFaults = "compile:0.2,runtime:0.2";
  const auto reference = run_table(1, 0, kFaults);
  const std::string ref_csv = report::render_csv(reference);
  for (const int jobs : {1, 2, 8}) {
    std::uint64_t evictions = 0;
    const auto t = run_table(jobs, kTightBudget, kFaults, &evictions);
    EXPECT_GT(evictions, 0u) << "jobs=" << jobs;
    EXPECT_EQ(report::render_csv(t), ref_csv) << "jobs=" << jobs;
  }
}

TEST(CacheServiceIdentity, WarmSharedServiceReusesEntriesAndMatchesCold) {
  const auto suite = small_suite();
  cache::Service svc;
  core::StudyOptions opt1;
  opt1.scale = 0.03;
  opt1.jobs = 2;
  opt1.cache_service = &svc;
  const auto cold = core::Study(std::move(opt1)).run_suite(suite);
  std::uint64_t compile_hits_after_first = 0;
  for (const auto& c : svc.stats())
    if (c.name == "compile") compile_hits_after_first = c.stats.hits;

  core::StudyOptions opt2;
  opt2.scale = 0.03;
  opt2.jobs = 2;
  opt2.cache_service = &svc;
  const auto warm = core::Study(std::move(opt2)).run_suite(suite);
  std::uint64_t compile_hits_after_second = 0;
  for (const auto& c : svc.stats())
    if (c.name == "compile") compile_hits_after_second = c.stats.hits;

  EXPECT_GT(compile_hits_after_second, compile_hits_after_first)
      << "the second study must hit the first study's warm entries";
  EXPECT_EQ(report::render_csv(warm), report::render_csv(cold));
}

TEST(CacheServiceIdentity, BumpEpochForcesColdBehaviourOnSharedService) {
  const auto suite = small_suite();
  cache::Service svc;
  core::StudyOptions opt1;
  opt1.scale = 0.03;
  opt1.cache_service = &svc;
  const auto first = core::Study(std::move(opt1)).run_suite(suite);
  svc.bump_epoch();
  core::StudyOptions opt2;
  opt2.scale = 0.03;
  opt2.cache_service = &svc;
  const auto second = core::Study(std::move(opt2)).run_suite(suite);
  EXPECT_EQ(report::render_csv(second), report::render_csv(first))
      << "invalidation recomputes, never changes results";
}

// ---- observability plumbing ----

TEST(CacheServiceObs, StudyEmitsCacheEvictEventsUnderTightBudget) {
  core::StudyOptions opt;
  opt.scale = 0.03;
  opt.jobs = 2;
  opt.cache_budget_bytes = kTightBudget;
  exec::CollectingSink sink;
  opt.sink = &sink;
  const core::Study study(std::move(opt));
  (void)study.run_suite(small_suite());
  EXPECT_GT(sink.count(exec::EventKind::CacheEvict), 0u);
}

TEST(CacheServiceObs, MetricsSinkFoldsTierCounters) {
  cache::Service svc;
  auto& a = svc.get_or_create<std::uint64_t, int>("alpha");
  a.publish(1, 1, val(1), 8);
  (void)a.find(1, 1);
  (void)a.find(2, 2);
  obs::MetricsSink metrics;
  metrics.fold_cache_stats(svc);
  EXPECT_EQ(metrics.counter("cache_alpha_hits"), 1u);
  EXPECT_EQ(metrics.counter("cache_alpha_misses"), 1u);
  EXPECT_EQ(metrics.counter("cache_alpha_entries"), 1u);
  EXPECT_EQ(metrics.counter("cache_alpha_bytes"), 8u);
  // CacheEvict events fold under their detail kind.
  exec::Event ev;
  ev.kind = exec::EventKind::CacheEvict;
  ev.count = 3;
  ev.detail = "tier";
  metrics.on_event(ev);
  EXPECT_EQ(metrics.counter("tier_cache_evictions"), 3u);
}

}  // namespace
