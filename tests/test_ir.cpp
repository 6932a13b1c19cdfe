// Unit tests for the IR data structures and the KernelBuilder DSL.

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/printer.hpp"

namespace {

using namespace a64fxcc::ir;

Kernel make_matmul() {
  KernelBuilder kb("matmul", {.language = Language::C, .suite = "test"});
  auto N = kb.param("N", 8);
  auto A = kb.tensor("A", DataType::F64, {N, N});
  auto B = kb.tensor("B", DataType::F64, {N, N});
  auto C = kb.tensor("C", DataType::F64, {N, N}, /*is_input=*/false);
  auto i = kb.var("i"), j = kb.var("j"), k = kb.var("k");
  kb.For(i, 0, N, [&] {
    kb.For(j, 0, N, [&] {
      kb.assign(C(i, j), 0.0);
      kb.For(k, 0, N, [&] { kb.accum(C(i, j), A(i, k) * B(k, j)); });
    });
  });
  return std::move(kb).build();
}

TEST(Builder, BuildsExpectedStructure) {
  const Kernel k = make_matmul();
  EXPECT_EQ(k.name(), "matmul");
  ASSERT_EQ(k.roots().size(), 1u);
  const Node& outer = *k.roots()[0];
  ASSERT_TRUE(outer.is_loop());
  ASSERT_EQ(outer.loop.body.size(), 1u);
  const Node& mid = *outer.loop.body[0];
  ASSERT_TRUE(mid.is_loop());
  ASSERT_EQ(mid.loop.body.size(), 2u);  // init stmt + k loop
  EXPECT_TRUE(mid.loop.body[0]->is_stmt());
  EXPECT_TRUE(mid.loop.body[1]->is_loop());
}

TEST(Builder, ParamsAndTensorsRegistered) {
  const Kernel k = make_matmul();
  ASSERT_EQ(k.params().size(), 1u);
  EXPECT_EQ(k.params()[0].name, "N");
  EXPECT_EQ(k.params()[0].value, 8);
  ASSERT_EQ(k.tensors().size(), 3u);
  EXPECT_TRUE(k.tensors()[0].is_input);
  EXPECT_FALSE(k.tensors()[2].is_input);
  EXPECT_EQ(k.find_tensor("B").value(), 1);
  EXPECT_FALSE(k.find_tensor("nope").has_value());
}

TEST(Builder, FootprintMatchesShapes) {
  const Kernel k = make_matmul();
  // 3 tensors of 8x8 doubles.
  EXPECT_EQ(k.footprint_bytes(), 3 * 8 * 8 * 8);
  EXPECT_EQ(k.tensor_elems(0), 64);
}

TEST(Builder, SetParamRebinds) {
  Kernel k = make_matmul();
  k.set_param("N", 4);
  EXPECT_EQ(k.tensor_elems(0), 16);
  // The kernel-held environment follows the rebind (N is var 0; the
  // loop variables i, j, k stay 0), and a clone made after it too.
  const std::vector<std::int64_t> env = {4, 0, 0, 0};
  EXPECT_EQ(k.param_env(), env);
  const Kernel c = k.clone();
  EXPECT_EQ(c.param_env(), env);
  EXPECT_EQ(c.tensor_elems(0), 16);
  EXPECT_THROW(k.set_param("Q", 1), std::invalid_argument);
}

TEST(Builder, AccumProducesReductionShape) {
  const Kernel k = make_matmul();
  const Node& kloop = *k.roots()[0]->loop.body[0]->loop.body[1];
  const Stmt& s = kloop.loop.body[0]->stmt;
  // C[i][j] = C[i][j] + A[i][k]*B[k][j]
  ASSERT_EQ(s.value->kind, ExprKind::Binary);
  EXPECT_EQ(s.value->bin, BinOp::Add);
  ASSERT_EQ(s.value->a->kind, ExprKind::Load);
  EXPECT_EQ(s.value->a->access.tensor, s.target.tensor);
}

TEST(Clone, DeepCloneIsStructurallyIndependent) {
  const Kernel k = make_matmul();
  Kernel c = k.clone();
  EXPECT_EQ(to_string(k), to_string(c));
  // Mutating the clone must not affect the original.
  c.roots()[0]->loop.step = 2;
  EXPECT_NE(to_string(k), to_string(c));
}

TEST(Printer, RendersPseudocode) {
  const Kernel k = make_matmul();
  const std::string s = to_string(k);
  EXPECT_NE(s.find("kernel matmul [C]"), std::string::npos);
  EXPECT_NE(s.find("for (i = 0; i < N; i++)"), std::string::npos);
  EXPECT_NE(s.find("C[i][j] = (C[i][j] + (A[i][k] * B[k][j]));"), std::string::npos);
}

TEST(Printer, RendersAnnotations) {
  Kernel k = make_matmul();
  Node& outer = *k.roots()[0];
  outer.loop.annot.parallel = true;
  Node& inner = *outer.loop.body[0]->loop.body[1];
  inner.loop.annot.vector_width = 8;
  inner.loop.annot.unroll = 4;
  const std::string s = to_string(k);
  EXPECT_NE(s.find("#parallel"), std::string::npos);
  EXPECT_NE(s.find("#simd(8)"), std::string::npos);
  EXPECT_NE(s.find("#unroll(4)"), std::string::npos);
}

TEST(Expr, CountersWalkWholeTree) {
  const Kernel k = make_matmul();
  const Stmt& s = k.roots()[0]->loop.body[0]->loop.body[1]->loop.body[0]->stmt;
  EXPECT_EQ(count_flops(*s.value), 2);  // one add, one mul
  EXPECT_EQ(count_loads(*s.value), 3);  // C, A, B
}

TEST(Expr, IndirectAccessCounted) {
  KernelBuilder kb("gather");
  auto N = kb.param("N", 4);
  auto idx = kb.tensor("idx", DataType::I64, {N});
  auto x = kb.tensor("x", DataType::F64, {N});
  auto y = kb.tensor("y", DataType::F64, {N}, false);
  auto i = kb.var("i");
  kb.For(i, 0, N, [&] { kb.assign(y(i), x(idx(i))); });
  const Kernel k = std::move(kb).build();
  const Stmt& s = k.roots()[0]->loop.body[0]->stmt;
  EXPECT_EQ(count_loads(*s.value), 2);  // x load + idx load inside subscript
  ASSERT_EQ(s.value->kind, ExprKind::Load);
  EXPECT_FALSE(s.value->access.is_affine());
}

TEST(Node, ForEachStmtVisitsAll) {
  const Kernel k = make_matmul();
  int count = 0;
  for_each_stmt(*k.roots()[0], [&](const Stmt&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(Node, ForEachLoopParentFirst) {
  const Kernel k = make_matmul();
  std::vector<VarId> order;
  for_each_loop(*k.roots()[0], [&](const Loop& l) { order.push_back(l.var); });
  ASSERT_EQ(order.size(), 3u);
  // Parent (i) before children (j before k).
  EXPECT_LT(order[0], order[1]);
  EXPECT_LT(order[1], order[2]);
}

TEST(Builder, BuildThrowsOnOpenLoop) {
  // For() enforces its own closure via the lambda, so the only way to get
  // an open loop is a misuse we simulate via exceptions inside the body.
  KernelBuilder kb("bad");
  auto N = kb.param("N", 2);
  auto i = kb.var("i");
  bool threw = false;
  try {
    kb.For(i, 0, N, [&] { throw std::runtime_error("user error"); });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
}

}  // namespace
