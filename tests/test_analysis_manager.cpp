// Analysis manager with preserved-analyses invalidation:
//
//  - cached results are field-identical to fresh analyze_* calls;
//  - a mutating pass invalidates exactly the non-preserved analyses
//    (the stale-dependence-graph trap);
//  - the structural fingerprint ignores annotations but sees structure,
//    and the annotated one (the plan key) sees annotations and names;
//  - every compile pipeline actually hits the memo, and a study reports
//    the traffic.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/manager.hpp"
#include "core/study.hpp"
#include "ir/builder.hpp"
#include "ir/fingerprint.hpp"
#include "kernels/benchmark.hpp"
#include "passes/passes.hpp"
#include "report/explain.hpp"

namespace {

using namespace a64fxcc;

// ---- field-identity helpers (the cached structs hold pointers into the
// kernel, so fresh and cached results over the SAME kernel object must
// agree pointer for pointer) ----

void expect_deps_equal(const std::vector<analysis::Dependence>& a,
                       const std::vector<analysis::Dependence>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].tensor, b[i].tensor) << i;
    EXPECT_EQ(a[i].src, b[i].src) << i;
    EXPECT_EQ(a[i].dst, b[i].dst) << i;
    EXPECT_EQ(a[i].chain, b[i].chain) << i;
    EXPECT_EQ(a[i].dirs, b[i].dirs) << i;
    EXPECT_EQ(a[i].reduction, b[i].reduction) << i;
  }
}

void expect_stats_equal(const std::vector<analysis::StmtStats>& a,
                        const std::vector<analysis::StmtStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ctx.stmt, b[i].ctx.stmt) << i;
    EXPECT_EQ(a[i].ctx.node, b[i].ctx.node) << i;
    EXPECT_EQ(a[i].ctx.loops, b[i].ctx.loops) << i;
    EXPECT_EQ(a[i].ops.flops, b[i].ops.flops) << i;
    EXPECT_EQ(a[i].ops.divs, b[i].ops.divs) << i;
    EXPECT_EQ(a[i].ops.specials, b[i].ops.specials) << i;
    EXPECT_EQ(a[i].ops.int_ops, b[i].ops.int_ops) << i;
    EXPECT_EQ(a[i].trip, b[i].trip) << i;
    EXPECT_EQ(a[i].iters, b[i].iters) << i;
    EXPECT_EQ(a[i].inner_trip, b[i].inner_trip) << i;
    ASSERT_EQ(a[i].accesses.size(), b[i].accesses.size()) << i;
    for (std::size_t j = 0; j < a[i].accesses.size(); ++j) {
      EXPECT_EQ(a[i].accesses[j].access, b[i].accesses[j].access) << i;
      EXPECT_EQ(a[i].accesses[j].is_write, b[i].accesses[j].is_write) << i;
      EXPECT_EQ(a[i].accesses[j].kind, b[i].accesses[j].kind) << i;
      EXPECT_EQ(a[i].accesses[j].stride_elems, b[i].accesses[j].stride_elems)
          << i;
      EXPECT_EQ(a[i].accesses[j].elem_size, b[i].accesses[j].elem_size) << i;
      EXPECT_EQ(a[i].accesses[j].tensor_elems, b[i].accesses[j].tensor_elems)
          << i;
    }
  }
}

void expect_nests_equal(const std::vector<analysis::PerfectNest>& a,
                        const std::vector<analysis::PerfectNest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].loop_nodes, b[i].loop_nodes) << i;
}

TEST(AnalysisManager, CachedResultsFieldIdenticalToFreshAnalyses) {
  for (const auto& b : kernels::polybench_suite(0.02)) {
    ir::Kernel k = b.kernel.clone();
    analysis::Manager am(k);
    expect_deps_equal(am.dependences(), analysis::analyze_dependences(k));
    expect_stats_equal(am.stmt_stats(), analysis::collect_stmt_stats(k));
    expect_nests_equal(am.nests(), analysis::collect_perfect_nests(k));
    // Second round of queries: all hits, values unchanged.  (Four hits:
    // dependences is queried twice for the same-reference check.)
    EXPECT_EQ(am.counters().misses, 3);
    const auto* deps0 = &am.dependences();
    EXPECT_EQ(deps0, &am.dependences());
    (void)am.stmt_stats();
    (void)am.nests();
    EXPECT_EQ(am.counters().hits, 4);
    EXPECT_EQ(am.counters().misses, 3);
    EXPECT_EQ(am.counters().invalidations, 0);
  }
}

TEST(AnalysisManager, AllPreservedInvalidationKeepsEverythingWarm) {
  auto suite = kernels::polybench_suite(0.02);
  ASSERT_FALSE(suite.empty());
  ir::Kernel k = suite.front().kernel.clone();
  analysis::Manager am(k);
  (void)am.dependences();
  (void)am.stmt_stats();
  (void)am.nests();
  am.invalidate(analysis::PreservedAnalyses::all());
  (void)am.dependences();
  (void)am.stmt_stats();
  (void)am.nests();
  EXPECT_EQ(am.counters().hits, 3);
  EXPECT_EQ(am.counters().misses, 3);
  EXPECT_EQ(am.counters().invalidations, 0);
}

TEST(AnalysisManager, UnchangedFingerprintKeepsCachesEvenWhenNonePreserved) {
  // invalidate(none()) with no structural change is the blocked-pass /
  // exact-undo path: the fingerprint check keeps everything warm.
  auto suite = kernels::polybench_suite(0.02);
  ir::Kernel k = suite.front().kernel.clone();
  analysis::Manager am(k);
  (void)am.dependences();
  am.invalidate(analysis::PreservedAnalyses::none());
  (void)am.dependences();
  EXPECT_EQ(am.counters().hits, 1);
  EXPECT_EQ(am.counters().misses, 1);
  EXPECT_EQ(am.counters().invalidations, 0);
}

TEST(AnalysisManager, MutatingPassInvalidatesNonPreservedAnalyses) {
  // The stale-graph trap: prime every cache, let aggressive interchange
  // mutate the tree, and check the manager recomputes (rather than
  // serving the pre-mutation graph).
  bool fired_somewhere = false;
  for (const auto& b : kernels::all_benchmarks(0.02)) {
    ir::Kernel k = b.kernel.clone();
    analysis::Manager am(k);
    (void)am.dependences();
    (void)am.stmt_stats();
    (void)am.nests();
    const std::uint64_t fp0 = am.fingerprint();
    const auto r = passes::interchange_for_locality(am, /*aggressive=*/true);
    if (!r.changed) continue;
    fired_somewhere = true;
    // A fired interchange is a structural change...
    EXPECT_NE(am.fingerprint(), fp0) << b.name();
    // ...that preserves only the nest structure: deps + stats dropped
    // (at least once; multi-nest kernels may fire more than one).
    EXPECT_GE(am.counters().invalidations, 2) << b.name();
    // Post-invalidation queries recompute against the MUTATED kernel and
    // agree with fresh analyses of it, field for field.
    expect_deps_equal(am.dependences(), analysis::analyze_dependences(k));
    expect_stats_equal(am.stmt_stats(), analysis::collect_stmt_stats(k));
    expect_nests_equal(am.nests(), analysis::collect_perfect_nests(k));
    break;
  }
  EXPECT_TRUE(fired_somewhere)
      << "no benchmark let aggressive interchange fire; the trap is untested";
}

TEST(AnalysisManager, FingerprintIgnoresAnnotationsButSeesStructure) {
  auto suite = kernels::polybench_suite(0.02);
  ir::Kernel k = suite.front().kernel.clone();
  const std::uint64_t fp0 = ir::fingerprint(k);
  EXPECT_EQ(fp0, ir::fingerprint(k));                  // deterministic
  EXPECT_EQ(fp0, ir::fingerprint(suite.front().kernel.clone()));  // clone-stable

  // Annotation-only mutation (what vectorize/unroll/prefetch do): the
  // structural fingerprint must not move, or annotation passes would
  // needlessly chill every cache.
  ASSERT_FALSE(k.roots().empty());
  ASSERT_TRUE(k.roots().front()->is_loop());
  ir::for_each_loop(*k.roots().front(), [](ir::Loop& l) {
    l.annot.vector_width = 8;
    l.annot.unroll = 4;
    l.annot.prefetch_dist = 16;
    l.annot.pipelined = true;
  });
  EXPECT_EQ(ir::fingerprint(k), fp0);

  // Structural mutations move it: a parameter rebind...
  ASSERT_FALSE(k.params().empty());
  const auto& p = k.params().front();
  k.set_param(p.name, p.value + 1);
  const std::uint64_t fp1 = ir::fingerprint(k);
  EXPECT_NE(fp1, fp0);
  // ...and a loop-bound change.
  ir::for_each_loop(*k.roots().front(),
                    [](ir::Loop& l) { l.step = l.step + 1; });
  EXPECT_NE(ir::fingerprint(k), fp1);
}

TEST(AnalysisManager, AnnotatedFingerprintSeesAnnotationsNamesAndShapes) {
  // The plan key: stable for a clone, moved by every loop annotation, a
  // parameter value, a loop variable's name and a tensor's shape, while
  // the structural fingerprint keeps ignoring annotations and names.
  const auto build = [](const char* inner, std::int64_t pad) {
    ir::KernelBuilder kb("annot");
    auto N = kb.param("N", 16);
    auto A = kb.tensor("A", ir::DataType::F64, {N, N + pad});
    auto y = kb.tensor("y", ir::DataType::F64, {N}, false);
    auto i = kb.var("i"), j = kb.var(inner);
    kb.For(i, 0, N, [&] { kb.For(j, 0, N, [&] { kb.accum(y(i), A(i, j)); }); });
    return std::move(kb).build();
  };
  const ir::Kernel k = build("j", 0);
  const std::uint64_t a0 = ir::annotated_fingerprint(k);
  EXPECT_EQ(a0, ir::annotated_fingerprint(k.clone()));

  using Set = void (*)(ir::LoopAnnot&);
  const std::vector<std::pair<const char*, Set>> fields = {
      {"vector_width", [](ir::LoopAnnot& a) { a.vector_width = 8; }},
      {"unroll", [](ir::LoopAnnot& a) { a.unroll = 4; }},
      {"parallel", [](ir::LoopAnnot& a) { a.parallel = true; }},
      {"prefetch_dist", [](ir::LoopAnnot& a) { a.prefetch_dist = 16; }},
      {"pipelined", [](ir::LoopAnnot& a) { a.pipelined = true; }},
      {"tiled", [](ir::LoopAnnot& a) { a.tiled = true; }},
      {"ocl_unroll", [](ir::LoopAnnot& a) { a.ocl_unroll = 8; }},
      {"ocl_prefetch", [](ir::LoopAnnot& a) { a.ocl_prefetch = 40; }},
      {"ocl_simd", [](ir::LoopAnnot& a) { a.ocl_simd = true; }},
  };
  for (const auto& [field, set] : fields) {
    ir::Kernel c = k.clone();
    set(c.roots().front()->loop.body.front()->loop.annot);
    EXPECT_NE(ir::annotated_fingerprint(c), a0) << field;
    EXPECT_EQ(ir::fingerprint(c), ir::fingerprint(k)) << field;
  }

  ir::Kernel rebound = k.clone();
  rebound.set_param("N", 17);
  EXPECT_NE(ir::annotated_fingerprint(rebound), a0);
  const ir::Kernel renamed = build("jj", 0);
  EXPECT_NE(ir::annotated_fingerprint(renamed), a0);
  EXPECT_EQ(ir::fingerprint(renamed), ir::fingerprint(k));
  EXPECT_NE(ir::annotated_fingerprint(build("j", 1)), a0);
}

TEST(AnalysisManager, CountersIdenticalWithMemoizationOnAndOff) {
  // Every paper compiler's pipeline re-queries analyses between passes,
  // so each compile must answer some of them from the memo.
  for (const auto& b : kernels::polybench_suite(0.02)) {
    for (const auto& spec : compilers::paper_compilers()) {
      const auto a = compilers::compile(spec, b.kernel);
      EXPECT_GT(a.analysis_cache.hits, 0)
          << b.name() << " x " << spec.name
          << ": pipeline shares no analyses at all?";
    }
  }
}

TEST(AnalysisManager, ExplainByteIdenticalAndShowsAnalysisTraffic) {
  auto suite = kernels::polybench_suite(0.02);
  const auto& b = suite.front();
  const auto specs = compilers::paper_compilers();
  const std::string r1 =
      report::render_explain(b.name(), report::explain_benchmark(b.kernel, specs));
  const std::string r2 =
      report::render_explain(b.name(), report::explain_benchmark(b.kernel, specs));
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1.find("[analysis:"), std::string::npos)
      << "explain shows no per-pass analysis cache traffic:\n"
      << r1;
}

TEST(DependencesBetween, CrossGroupVerdictIdenticalToFilteredFullAnalysis) {
  // The fuse-legality fast path: analyze_dependences_between must report
  // exactly the cross-group slice of the full analysis, in order.
  for (const auto& b : kernels::polybench_suite(0.02)) {
    const ir::Kernel& k = b.kernel;
    const auto ctxs = analysis::collect_stmts(k);
    if (ctxs.size() < 2) continue;
    std::vector<const ir::Stmt*> ga, gb;
    for (std::size_t i = 0; i < ctxs.size(); ++i)
      (i < ctxs.size() / 2 ? ga : gb).push_back(ctxs[i].stmt);
    const auto between = analysis::analyze_dependences_between(k, ga, gb);
    std::vector<analysis::Dependence> filtered;
    const auto in = [](const std::vector<const ir::Stmt*>& g,
                       const ir::Stmt* s) {
      for (const auto* e : g)
        if (e == s) return true;
      return false;
    };
    for (const auto& d : analysis::analyze_dependences(k)) {
      const bool cross = (in(ga, d.src) && in(gb, d.dst)) ||
                         (in(gb, d.src) && in(ga, d.dst));
      if (cross) filtered.push_back(d);
    }
    expect_deps_equal(between, filtered);
  }
}

TEST(AnalysisCacheMetrics, StudyCountsAnalysisTraffic) {
  core::StudyOptions opt;
  opt.scale = 0.03;
  opt.jobs = 2;
  exec::CollectingSink sink;
  opt.sink = &sink;
  core::Study study(std::move(opt));
  const auto t = study.run_suite(kernels::polybench_suite(0.03));
  ASSERT_FALSE(t.rows.empty());
  int hits = 0, misses = 0;
  for (const auto& e : sink.events()) {
    hits += e.metrics.analysis_cache_hits;
    misses += e.metrics.analysis_cache_misses;
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
}

}  // namespace
