// Validation of the full benchmark registry: counts per suite, metadata,
// and — crucially — every kernel must *execute* correctly on the
// interpreter at test scale (in-bounds accesses, valid indirect indices,
// sane loop bounds), and survive every compiler model's pipeline with
// semantics intact.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "compilers/compiler_model.hpp"
#include "interp/interpreter.hpp"
#include "ir/fingerprint.hpp"
#include "kernels/benchmark.hpp"

namespace {

using namespace a64fxcc;
using kernels::Benchmark;

// Tiny scale so interpreter runs stay fast.
constexpr double kScale = 0.01;

TEST(Registry, SuiteSizesMatchThePaper) {
  EXPECT_EQ(kernels::microkernel_suite(kScale).size(), 22u);
  EXPECT_EQ(kernels::polybench_suite(kScale).size(), 30u);
  EXPECT_EQ(kernels::top500_suite(kScale).size(), 3u);
  EXPECT_EQ(kernels::ecp_suite(kScale).size(), 11u);
  EXPECT_EQ(kernels::fiber_suite(kScale).size(), 8u);
  EXPECT_EQ(kernels::spec_cpu_suite(kScale).size(), 20u);
  EXPECT_EQ(kernels::spec_omp_suite(kScale).size(), 14u);
  EXPECT_EQ(kernels::all_benchmarks(kScale).size(), 108u);
}

TEST(Registry, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& b : kernels::all_benchmarks(kScale))
    EXPECT_TRUE(names.insert(b.name()).second) << "duplicate: " << b.name();
}

TEST(Registry, BenchmarksCarryTheirKernelsContentFingerprint) {
  // Every compile, cell, journal and lease key of a study reads the
  // fingerprint a Benchmark stored at construction instead of printing
  // the kernel again; it must equal a fresh one at any scale.
  using Suite = std::vector<Benchmark> (*)(double);
  const Suite suites[] = {kernels::microkernel_suite, kernels::polybench_suite,
                          kernels::top500_suite,      kernels::ecp_suite,
                          kernels::fiber_suite,       kernels::spec_cpu_suite,
                          kernels::spec_omp_suite,    kernels::all_benchmarks};
  for (const double scale : {1.0, 0.05})
    for (const Suite suite : suites)
      for (const auto& b : suite(scale))
        EXPECT_EQ(b.fingerprint(), ir::content_fingerprint(b.kernel))
            << b.name() << " at scale " << scale;
}

TEST(Registry, MicroKernelsAreMostlyFortran) {
  int fortran = 0, c = 0;
  for (const auto& b : kernels::microkernel_suite(kScale)) {
    if (b.kernel.meta().language == ir::Language::Fortran) ++fortran;
    if (b.kernel.meta().language == ir::Language::C) ++c;
  }
  EXPECT_EQ(c, 5);  // "primarily written in Fortran (except five)"
  EXPECT_EQ(fortran, 17);
}

TEST(Registry, PolybenchIsSerialC) {
  for (const auto& b : kernels::polybench_suite(kScale)) {
    EXPECT_EQ(b.kernel.meta().language, ir::Language::C) << b.name();
    EXPECT_EQ(b.kernel.meta().parallel, ir::ParallelModel::Serial) << b.name();
    EXPECT_TRUE(b.traits.single_core) << b.name();
  }
}

TEST(Registry, SpecIntIsSingleThreadedFpIsNot) {
  int st = 0, mt = 0;
  for (const auto& b : kernels::spec_cpu_suite(kScale)) {
    if (b.traits.single_core) ++st;
    else ++mt;
  }
  EXPECT_EQ(st, 10);
  EXPECT_EQ(mt, 10);
}

TEST(Registry, TraitsEncodePaperMethodology) {
  bool swfft_pow2 = false, miniamr_weak = false, xsbench_weak = false;
  double babel_cv = 0, amg_cv = 1;
  double hpl_lib = 0;
  for (const auto& b : kernels::all_benchmarks(kScale)) {
    if (b.name() == "swfft") swfft_pow2 = b.traits.pow2_ranks_only;
    if (b.name() == "miniamr") miniamr_weak = !b.traits.explore_placements;
    if (b.name() == "xsbench") xsbench_weak = !b.traits.explore_placements;
    if (b.name() == "babelstream") babel_cv = b.traits.noise_cv;
    if (b.name() == "amg") amg_cv = b.traits.noise_cv;
    if (b.name() == "hpl") hpl_lib = b.traits.library_fraction;
  }
  EXPECT_TRUE(swfft_pow2);
  EXPECT_TRUE(miniamr_weak);
  EXPECT_TRUE(xsbench_weak);
  EXPECT_DOUBLE_EQ(babel_cv, 0.22);    // Sec. 2.4
  EXPECT_DOUBLE_EQ(amg_cv, 0.00114);   // Sec. 2.4
  EXPECT_GT(hpl_lib, 0.8);             // SSL2-dominated
}

TEST(Registry, EveryKernelExecutesInBounds) {
  for (const auto& b : kernels::all_benchmarks(kScale)) {
    SCOPED_TRACE(b.name());
    interp::Interpreter in(b.kernel);
    ASSERT_NO_THROW(in.run()) << b.name();
    EXPECT_GT(in.stmts_executed(), 0u) << b.name();
  }
}

TEST(Registry, EveryKernelHasFiniteChecksum) {
  for (const auto& b : kernels::all_benchmarks(kScale)) {
    interp::Interpreter in(b.kernel);
    in.run();
    EXPECT_TRUE(std::isfinite(in.checksum())) << b.name();
  }
}

// The heavyweight property: every benchmark x every compiler model must
// produce a semantically equivalent kernel (or a declared quirk error).
class CompileAllTest : public ::testing::TestWithParam<int> {};

std::vector<Benchmark> suite_by_index(int i) {
  switch (i) {
    case 0: return kernels::microkernel_suite(kScale);
    case 1: return kernels::polybench_suite(kScale);
    case 2: return kernels::top500_suite(kScale);
    case 3: return kernels::ecp_suite(kScale);
    case 4: return kernels::fiber_suite(kScale);
    case 5: return kernels::spec_cpu_suite(kScale);
    default: return kernels::spec_omp_suite(kScale);
  }
}

TEST_P(CompileAllTest, SuiteCompilesAndPreservesSemantics) {
  const auto suite = suite_by_index(GetParam());
  for (const auto& b : suite) {
    for (const auto& spec : compilers::paper_compilers()) {
      SCOPED_TRACE(b.name() + " x " + spec.name);
      const auto out = compilers::compile(spec, b.kernel);
      if (!out.ok()) {
        // Must be a declared quirk, never an accidental failure.
        EXPECT_NE(compilers::find_quirk(spec.id, b.name()), nullptr);
        continue;
      }
      std::string why;
      EXPECT_TRUE(interp::equivalent(b.kernel, *out.kernel, 1e-7, 1e-10, &why))
          << why;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSuites, CompileAllTest, ::testing::Range(0, 7));

}  // namespace
