// Tests for structural kernel validation, including the property that
// every registry benchmark and every compiler-transformed kernel
// validates cleanly.

#include <gtest/gtest.h>

#include "compilers/compiler_model.hpp"
#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "ir/validate.hpp"
#include "kernels/benchmark.hpp"

namespace {

using namespace a64fxcc;
using namespace a64fxcc::ir;

TEST(Validate, CleanKernelHasNoDiagnostics) {
  KernelBuilder kb("ok");
  auto N = kb.param("N", 8);
  auto x = kb.tensor("x", DataType::F64, {N});
  auto y = kb.tensor("y", DataType::F64, {N}, false);
  auto i = kb.var("i");
  kb.For(i, 0, N, [&] { kb.assign(y(i), x(i) * 2.0); });
  const Kernel k = std::move(kb).build();
  EXPECT_TRUE(validate(k).empty());
  EXPECT_TRUE(is_valid(k));
}

TEST(Validate, RankMismatchIsAnError) {
  KernelBuilder kb("rank");
  auto N = kb.param("N", 8);
  auto A = kb.tensor("A", DataType::F64, {N, N}, false);
  auto i = kb.var("i");
  kb.For(i, 0, N, [&] { kb.assign(A(i), 1.0); });
  const Kernel k = std::move(kb).build();
  EXPECT_FALSE(is_valid(k));
  EXPECT_NE(to_string(validate(k)).find("rank"), std::string::npos);
}

TEST(Validate, OutOfScopeVariableIsAnError) {
  KernelBuilder kb("scope");
  auto N = kb.param("N", 8);
  auto y = kb.tensor("y", DataType::F64, {N}, false);
  auto i = kb.var("i"), j = kb.var("j");
  // j is declared but never opened as a loop: using it is an error.
  kb.For(i, 0, N, [&] { kb.assign(y(j), 1.0); });
  const Kernel k = std::move(kb).build();
  EXPECT_FALSE(is_valid(k));
  EXPECT_NE(to_string(validate(k)).find("outside its loop"), std::string::npos);
}

TEST(Validate, NonPositiveDimensionIsAnError) {
  KernelBuilder kb("dim");
  auto N = kb.param("N", 0);
  auto x = kb.tensor("x", DataType::F64, {N}, false);
  auto i = kb.var("i");
  kb.For(i, 0, 1, [&] { kb.assign(x(0), 1.0); });
  const Kernel k = std::move(kb).build();
  EXPECT_FALSE(is_valid(k));
}

TEST(Validate, NeverWrittenOutputIsAWarningOnly) {
  KernelBuilder kb("dead");
  auto N = kb.param("N", 4);
  auto x = kb.tensor("x", DataType::F64, {N});
  auto y = kb.tensor("y", DataType::F64, {N}, false);
  auto z = kb.tensor("z", DataType::F64, {N}, false);  // never written
  auto i = kb.var("i");
  kb.For(i, 0, N, [&] { kb.assign(y(i), x(i)); });
  const Kernel k = std::move(kb).build();
  EXPECT_TRUE(is_valid(k));  // warnings do not invalidate
  const auto ds = validate(k);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].severity, Diagnostic::Severity::Warning);
  EXPECT_NE(ds[0].message.find("z"), std::string::npos);
  (void)z;
}

TEST(Validate, ShadowedLoopVariableIsAnError) {
  // Hand-assemble a tree that reuses the same var id in nested loops.
  Kernel k("bad");
  const auto n = k.add_param("N", 4);
  const auto i = k.add_loop_var("i");
  const auto x = k.add_tensor("x", DataType::F64,
                              {AffineExpr::var(n)}, false);
  auto inner = Node::make_loop(i, AffineExpr::constant(0), AffineExpr::var(n));
  Access acc1;
  acc1.tensor = x;
  acc1.index.push_back(Index(AffineExpr::var(i)));
  inner->loop.body.push_back(
      Node::make_stmt(std::move(acc1), Expr::make_const(1.0)));
  auto outer = Node::make_loop(i, AffineExpr::constant(0), AffineExpr::var(n));
  outer->loop.body.push_back(std::move(inner));
  k.add_root(std::move(outer));
  EXPECT_FALSE(is_valid(k));
  EXPECT_NE(to_string(validate(k)).find("shadows"), std::string::npos);
}

TEST(Validate, ZeroStepIsAnError) {
  Kernel k("step");
  const auto n = k.add_param("N", 4);
  const auto i = k.add_loop_var("i");
  const auto x =
      k.add_tensor("x", DataType::F64, {AffineExpr::var(n)}, false);
  auto loop = Node::make_loop(i, AffineExpr::constant(0), AffineExpr::var(n));
  loop->loop.step = 0;
  Access acc2;
  acc2.tensor = x;
  acc2.index.push_back(Index(AffineExpr::var(i)));
  loop->loop.body.push_back(
      Node::make_stmt(std::move(acc2), Expr::make_const(1.0)));
  k.add_root(std::move(loop));
  EXPECT_FALSE(is_valid(k));
}

TEST(Validate, TensorSizeBeyondInt64IsAnError) {
  // 3037000500^2 elements is just past INT64_MAX: tensor_elems would
  // overflow while the analyses classify the accesses.
  const Kernel k = parse_kernel(
      "kernel \"huge-tensor\"\n"
      "param N = 3037000500\n"
      "tensor A f64 [N][N] output\n"
      "for i = 0 .. 4 {\n"
      "  A[i][i] = 1;\n"
      "}\n");
  EXPECT_FALSE(is_valid(k));
  const std::string msg = to_string(validate(k));
  EXPECT_NE(msg.find("tensor 'A' element count overflows"), std::string::npos)
      << msg;
}

TEST(Validate, TensorByteSizeBeyondInt64IsAnError) {
  // 2^61 elements fit; 2^64 bytes of f64 do not.
  const Kernel k = parse_kernel(
      "kernel \"huge-bytes\"\n"
      "param N = 2305843009213693952\n"
      "tensor x f64 [N] output\n"
      "for i = 0 .. 4 {\n"
      "  x[i] = 1;\n"
      "}\n");
  EXPECT_FALSE(is_valid(k));
  const std::string msg = to_string(validate(k));
  EXPECT_NE(msg.find("tensor 'x' byte size overflows"), std::string::npos)
      << msg;
}

TEST(Validate, LoopBoundBeyondInt64IsAnError) {
  // 2*N = 10^19 leaves int64 when the trip-count rule evaluates it.
  const Kernel k = parse_kernel(
      "kernel \"huge-bound\"\n"
      "param N = 5000000000000000000\n"
      "tensor x f64 [4] output\n"
      "for i = 0 .. 2*N {\n"
      "  x[0] = 1;\n"
      "}\n");
  EXPECT_FALSE(is_valid(k));
  const std::string msg = to_string(validate(k));
  EXPECT_NE(msg.find("loop 'i' bounds overflow"), std::string::npos) << msg;
}

TEST(Validate, InnerBoundMagnitudeIncludesOuterRange) {
  // Each bound fits alone, but j's upper bound 4*i reaches 4 * 3e18.
  const Kernel k = parse_kernel(
      "kernel \"huge-inner\"\n"
      "param N = 3000000000000000000\n"
      "tensor x f64 [4] output\n"
      "for i = 0 .. N {\n"
      "  for j = 0 .. 4*i {\n"
      "    x[0] = 1;\n"
      "  }\n"
      "}\n");
  EXPECT_FALSE(is_valid(k));
  const std::string msg = to_string(validate(k));
  EXPECT_NE(msg.find("loop 'j' bounds overflow"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("loop 'i'"), std::string::npos) << msg;
}

TEST(Validate, AllRegistryBenchmarksValidate) {
  for (const auto& b : kernels::all_benchmarks(0.02))
    EXPECT_TRUE(is_valid(b.kernel))
        << b.name() << "\n" << to_string(validate(b.kernel));
}

TEST(Validate, TransformedKernelsStillValidate) {
  for (const auto& b : kernels::polybench_suite(0.02)) {
    for (const auto& spec : compilers::paper_compilers()) {
      const auto out = compilers::compile(spec, b.kernel);
      if (!out.ok()) continue;
      EXPECT_TRUE(is_valid(*out.kernel))
          << b.name() << " x " << spec.name << "\n"
          << to_string(validate(*out.kernel));
    }
  }
}

}  // namespace
