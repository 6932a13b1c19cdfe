// Additional dependence/access analysis edge cases: coupled subscripts,
// parameter-offset disambiguation, scalar (0-d) dependences, negative
// steps, multi-statement interactions, and footprint boundary behaviour.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/access.hpp"
#include "analysis/dependence.hpp"
#include "ir/builder.hpp"

namespace {

using namespace a64fxcc::ir;
using namespace a64fxcc::analysis;

TEST(DependenceExtra, CoupledSubscriptIsConservativeStar) {
  // A[i+j] = A[i+j-1]: coupled subscripts -> Star (not "no dependence").
  KernelBuilder kb("c");
  auto N = kb.param("N", 8);
  auto A = kb.tensor("A", DataType::F64, {N + N});
  auto i = kb.var("i"), j = kb.var("j");
  kb.For(i, 0, N, [&] {
    kb.For(j, 1, N, [&] { kb.assign(A(i + j), A(i + j - 1)); });
  });
  const Kernel k = std::move(kb).build();
  const auto deps = analyze_dependences(k);
  bool star = false;
  for (const auto& d : deps)
    for (const auto dir : d.dirs)
      if (dir == Dir::Star) star = true;
  EXPECT_TRUE(star);
  // And any permutation must be refused.
  const int perm[2] = {1, 0};
  bool violated = false;
  for (const auto& d : deps)
    if (d.dirs.size() == 2 && violates_permutation(d, std::span<const int>(perm, 2)))
      violated = true;
  EXPECT_TRUE(violated);
}

TEST(DependenceExtra, ParameterOffsetDisambiguates) {
  // A[i] vs A[i + N]: different halves of the array, no dependence on i.
  KernelBuilder kb("p");
  auto N = kb.param("N", 8);
  auto A = kb.tensor("A", DataType::F64, {N + N});
  auto i = kb.var("i");
  kb.For(i, 0, N, [&] { kb.assign(A(i), A(i + N) * 2.0); });
  const Kernel k = std::move(kb).build();
  const auto deps = analyze_dependences(k);
  const Loop& loop = k.roots()[0]->loop;
  for (const auto& d : deps) EXPECT_FALSE(carried_by(d, loop));
}

TEST(DependenceExtra, ScalarAccumulatorCarriesEveryLoop) {
  KernelBuilder kb("s");
  auto N = kb.param("N", 8);
  auto x = kb.tensor("x", DataType::F64, {N, N});
  auto s = kb.scalar("s", DataType::F64, false);
  auto i = kb.var("i"), j = kb.var("j");
  kb.For(i, 0, N, [&] {
    kb.For(j, 0, N, [&] { kb.accum(s(), x(i, j)); });
  });
  const Kernel k = std::move(kb).build();
  const auto deps = analyze_dependences(k);
  const Loop& li = k.roots()[0]->loop;
  const Loop& lj = k.roots()[0]->loop.body[0]->loop;
  bool carried_i = false, carried_j = false, is_reduction = false;
  for (const auto& d : deps) {
    if (carried_by(d, li)) carried_i = true;
    if (carried_by(d, lj)) carried_j = true;
    if (d.reduction) is_reduction = true;
  }
  EXPECT_TRUE(carried_i);
  EXPECT_TRUE(carried_j);
  EXPECT_TRUE(is_reduction);  // and it is the vectorizable kind
}

TEST(DependenceExtra, CrossStatementFlowWithinIteration) {
  // S1 writes t[i], S2 reads t[i]: loop-independent flow (all-Eq), must
  // not block vectorization of the loop.
  KernelBuilder kb("x");
  auto N = kb.param("N", 16);
  auto a = kb.tensor("a", DataType::F64, {N});
  auto t = kb.tensor("t", DataType::F64, {N}, false);
  auto b = kb.tensor("b", DataType::F64, {N}, false);
  auto i = kb.var("i");
  kb.For(i, 0, N, [&] {
    kb.assign(t(i), a(i) * 2.0);
    kb.assign(b(i), t(i) + 1.0);
  });
  const Kernel k = std::move(kb).build();
  const auto deps = analyze_dependences(k);
  const Loop& loop = k.roots()[0]->loop;
  for (const auto& d : deps) EXPECT_FALSE(carried_by(d, loop));
}

TEST(DependenceExtra, OffsetCrossStatementIsCarried) {
  // S1 writes t[i], S2 reads t[i-1]: carried flow distance 1.
  KernelBuilder kb("y");
  auto N = kb.param("N", 16);
  auto a = kb.tensor("a", DataType::F64, {N});
  auto t = kb.tensor("t", DataType::F64, {N});
  auto b = kb.tensor("b", DataType::F64, {N}, false);
  auto i = kb.var("i");
  kb.For(i, 1, N, [&] {
    kb.assign(t(i), a(i) * 2.0);
    kb.assign(b(i), t(i - 1) + 1.0);
  });
  const Kernel k = std::move(kb).build();
  const auto deps = analyze_dependences(k);
  const Loop& loop = k.roots()[0]->loop;
  bool carried = false;
  for (const auto& d : deps)
    if (d.tensor == 1 && carried_by(d, loop)) carried = true;
  EXPECT_TRUE(carried);
}

TEST(AccessExtra, StrideTwoClassifiedStrided) {
  KernelBuilder kb("s2");
  auto N = kb.param("N", 32);
  auto x = kb.tensor("x", DataType::F64, {2 * N});
  auto y = kb.tensor("y", DataType::F64, {N}, false);
  auto i = kb.var("i");
  kb.For(i, 0, N, [&] { kb.assign(y(i), x(2 * i)); });
  const Kernel k = std::move(kb).build();
  const auto stats = collect_stmt_stats(k);
  bool found = false;
  for (const auto& p : stats[0].accesses) {
    if (p.is_write) continue;
    EXPECT_EQ(p.kind, PatternKind::Strided);
    EXPECT_EQ(p.stride_elems, 2);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(AccessExtra, NegativeStrideIsUnitClass) {
  KernelBuilder kb("rev");
  auto N = kb.param("N", 16);
  auto x = kb.tensor("x", DataType::F64, {N});
  auto y = kb.tensor("y", DataType::F64, {N}, false);
  auto i = kb.var("i");
  kb.For(i, 0, N, [&] {
    kb.assign(y(i), x(AffineExpr::constant(15) - AffineExpr::var(i.id)));
  });
  const Kernel k = std::move(kb).build();
  const auto stats = collect_stmt_stats(k);
  bool reverse_unit = false;
  for (const auto& p : stats[0].accesses)
    if (!p.is_write && p.kind == PatternKind::Unit && p.stride_elems == -1)
      reverse_unit = true;
  EXPECT_TRUE(reverse_unit);
}

TEST(AccessExtra, FootprintLinesColumnVsRow) {
  KernelBuilder kb("fp");
  auto N = kb.param("N", 64);
  auto A = kb.tensor("A", DataType::F64, {N, N});
  auto s = kb.scalar("s", DataType::F64, false);
  auto i = kb.var("i"), j = kb.var("j");
  kb.For(i, 0, N, [&] {
    kb.For(j, 0, N, [&] { kb.accum(s(), A(i, j) + A(j, i)); });
  });
  const Kernel k = std::move(kb).build();
  const auto stmts = collect_stmts(k);
  const LoopChain chain(stmts[0].loops.data(), stmts[0].loops.size());
  // The row access A[i][j] over the inner loop: one 64-double row = 2
  // 256-byte lines.  The column access A[j][i]: 64 separate lines.
  const Stmt& s0 = *stmts[0].stmt;
  // s.value = (s + (A[i][j] + A[j][i]))
  const Access& row = s0.value->b->a->access;
  const Access& col = s0.value->b->b->access;
  const auto trips = trip_counts(chain, k);
  EXPECT_NEAR(footprint_lines(row, chain, trips, 1, k, 256), 2.0, 1e-9);
  EXPECT_NEAR(footprint_lines(col, chain, trips, 1, k, 256), 64.0, 1e-9);
  // Whole-nest footprints converge to the full matrix for both.
  EXPECT_NEAR(footprint_lines(row, chain, trips, 0, k, 256), 128.0, 1e-9);
  EXPECT_NEAR(footprint_lines(col, chain, trips, 0, k, 256), 128.0, 1e-9);
}

TEST(AccessExtra, IterationCountWithStep) {
  KernelBuilder kb("st");
  auto N = kb.param("N", 100);
  auto x = kb.tensor("x", DataType::F64, {N}, false);
  auto i = kb.var("i");
  kb.For(i, 0, N, [&] { kb.assign(x(i), 1.0); }, 7);
  const Kernel k = std::move(kb).build();
  const auto stmts = collect_stmts(k);
  EXPECT_NEAR(iteration_count(trip_counts(stmts[0].loops, k)),
              std::ceil(100.0 / 7.0), 1e-9);
}

}  // namespace
