// Unified cache tier (cache::ShardedMap + cache::Service):
//
//  - map mechanics: lock-free hits, insert-only first-insertion-wins
//    races (the loser is handed the resident value and its lookup is
//    recounted as a hit);
//  - service mechanics: named instances shared by name, type-checked
//    re-registration and the stats table;
//  - warm reuse: a second study on one Service hits every cell model
//    of the first, adds no compile, plan or estimate traffic, and still
//    renders an identical table.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/service.hpp"
#include "cache/sharded_map.hpp"
#include "core/study.hpp"
#include "kernels/benchmark.hpp"
#include "obs/metrics.hpp"
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
  EXPECT_FALSE(pub.lost_race);
  EXPECT_EQ(*pub.value, 42);
  const auto hit = m.find(7, 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), pub.value.get());
  const auto st = m.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
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
  EXPECT_FALSE(first.lost_race);
  EXPECT_TRUE(second.lost_race);
  // The loser is handed the resident (first) value, so racing callers
  // agree on one object, and its lookup is recounted as a hit.
  EXPECT_EQ(second.value.get(), first.value.get());
  EXPECT_EQ(m.find(7, 7).get(), first.value.get());
  EXPECT_EQ(m.stats().entries, 1u);
  EXPECT_EQ(m.stats().bytes, 8u);
  EXPECT_EQ(m.stats().misses, 1u);
  EXPECT_EQ(m.stats().hits, 2u);
}

TEST(ShardedMap, ConcurrentPublishAndFindAgreeOnOneValue) {
  // Hammer a handful of hot keys from many threads; every thread must be
  // served the same resident object per key, whether its lookup hit,
  // inserted, or lost the publish race (run under ASan+UBSan and TSan
  // in CI).
  TestMap m("t");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 16;
  std::vector<std::vector<const int*>> seen(
      kThreads, std::vector<const int*>(kKeys, nullptr));
  std::atomic<int> disagreements{0};
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&m, &disagreements, &mine = seen[t]] {
      for (int round = 0; round < 200; ++round)
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          auto v = m.find(k, k);
          if (v == nullptr) v = m.publish(k, k, val(int(k)), 8).value;
          if (*v != int(k)) disagreements.fetch_add(1);
          if (mine[k] == nullptr) mine[k] = v.get();
          if (mine[k] != v.get()) disagreements.fetch_add(1);
        }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(disagreements.load(), 0);
  for (std::uint64_t k = 0; k < kKeys; ++k)
    for (int t = 1; t < kThreads; ++t)
      EXPECT_EQ(seen[t][k], seen[0][k]) << "key " << k << ", thread " << t;
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

TEST(CacheService, StatsAndTextCoverEveryRegisteredCache) {
  cache::Service svc;
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

// ---- warm reuse ----

std::vector<kernels::Benchmark> small_suite() {
  auto suite = kernels::polybench_suite(0.03);
  auto micro = kernels::microkernel_suite(0.03);
  for (std::size_t i = 0; i < 4 && i < micro.size(); ++i)
    suite.push_back(std::move(micro[i]));
  return suite;
}

TEST(CacheServiceIdentity, WarmSharedServiceReusesEntriesAndMatchesCold) {
  const auto suite = small_suite();
  cache::Service svc;
  const auto snapshot = [&svc] {
    std::map<std::string, cache::Stats> out;
    for (const auto& c : svc.stats()) out[c.name] = c.stats;
    return out;
  };
  core::StudyOptions opt1;
  opt1.scale = 0.03;
  opt1.jobs = 2;
  opt1.cache_service = &svc;
  const auto cold = core::Study(std::move(opt1)).run_suite(suite);
  const auto first = snapshot();

  core::StudyOptions opt2;
  opt2.scale = 0.03;
  opt2.jobs = 2;
  opt2.cache_service = &svc;
  const auto warm = core::Study(std::move(opt2)).run_suite(suite);
  const auto second = snapshot();

  // Nothing is ever dropped, so the second study finds every cell model
  // of the first (one miss per cell, then one hit per cell).  Compiles,
  // plans and evaluations live in each row's memo, never on the tier.
  const std::uint64_t cells =
      suite.size() * core::StudyOptions{}.compilers.size();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_EQ(first.count("cells"), 1u);
  EXPECT_EQ(first.at("cells").misses, cells);
  EXPECT_EQ(first.at("cells").hits, 0u);
  EXPECT_EQ(first.at("cells").entries, cells);
  EXPECT_EQ(second.at("cells").misses, cells);
  EXPECT_EQ(second.at("cells").hits, cells);
  EXPECT_EQ(second.at("cells").entries, cells);
  EXPECT_EQ(report::render_csv(warm), report::render_csv(cold));
}

// ---- observability plumbing ----

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
}

}  // namespace
