#pragma once
// Benchmark = a kernel + measurement traits.  The registry reproduces the
// paper's seven test collections (Sec. 2.2), 108 workloads total:
//
//   22 RIKEN micro kernels   (microkernel_suite)
//   30 PolyBench/C 4.2 LARGE (polybench_suite)
//    3 HPL / HPCG / BabelStream (top500_suite)
//   11 ECP proxy apps        (ecp_suite)
//    8 RIKEN Fiber mini-apps (fiber_suite)
//   20 SPEC CPU 2017 [speed] (spec_cpu_suite)
//   14 SPEC OMP 2012         (spec_omp_suite)
//
// Where the original source is proprietary (SPEC) or too large to carry
// (full proxy apps), the entry is a *workload descriptor*: a kernel
// built from the archetype patterns in archetypes.hpp that reproduces
// the benchmark's dominant loop structure, language, operation mix and
// memory behaviour.  DESIGN.md documents this substitution.

#include <cstdint>
#include <string>
#include <vector>

#include "ir/fingerprint.hpp"
#include "ir/kernel.hpp"

namespace a64fxcc::kernels {

struct BenchmarkTraits {
  /// Strong-scaling benchmarks get the placement exploration phase
  /// (Sec. 2.4); weak-scaling ones (MiniAMR, XSBench) run at the
  /// recommended 4x12.
  bool explore_placements = true;
  /// Codes like SWFFT require power-of-two rank counts.
  bool pow2_ranks_only = false;
  /// PolyBench runs pinned to one core; SPEC CPU int is single-threaded.
  bool single_core = false;
  /// The RIKEN micro kernels target one core memory group (12 cores,
  /// one HBM2 module): placement exploration stays within a CMG.
  bool one_cmg = false;
  /// Run-to-run coefficient of variation for the noise model (Sec. 2.4:
  /// AMG 0.114%, BabelStream up to 22%).
  double noise_cv = 0.005;
  /// Fraction of runtime spent in vendor libraries (SSL2 BLAS for HPL,
  /// NTChem, the CANDLE convolution): that part is compiler-independent.
  double library_fraction = 0.0;
};

/// A benchmark's kernel is fixed once the benchmark is constructed: the
/// constructor fingerprints it (one print), and every compile, cell,
/// journal and lease key of a study reads that stored value.  Adjust
/// `traits` freely (the suites do); never mutate `kernel` in place —
/// build a new Benchmark instead.
struct Benchmark {
  ir::Kernel kernel;
  BenchmarkTraits traits;

  Benchmark(ir::Kernel k, BenchmarkTraits t)
      : kernel(std::move(k)),
        traits(t),
        fingerprint_(ir::content_fingerprint(kernel)) {}
  [[nodiscard]] const std::string& name() const { return kernel.name(); }
  [[nodiscard]] const std::string& suite() const { return kernel.meta().suite; }
  /// ir::content_fingerprint(kernel), computed at construction.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

 private:
  std::uint64_t fingerprint_;
};

// ---- suites ----------------------------------------------------------------
// `scale` multiplies the linear problem dimensions (1.0 = paper sizes).
// Tests pass small scales so interpreter-based checks stay fast; the
// benches use 1.0.
[[nodiscard]] std::vector<Benchmark> microkernel_suite(double scale = 1.0);
[[nodiscard]] std::vector<Benchmark> polybench_suite(double scale = 1.0);
[[nodiscard]] std::vector<Benchmark> top500_suite(double scale = 1.0);
[[nodiscard]] std::vector<Benchmark> ecp_suite(double scale = 1.0);
[[nodiscard]] std::vector<Benchmark> fiber_suite(double scale = 1.0);
[[nodiscard]] std::vector<Benchmark> spec_cpu_suite(double scale = 1.0);
[[nodiscard]] std::vector<Benchmark> spec_omp_suite(double scale = 1.0);

/// All 108 benchmarks in Figure-2 order.
[[nodiscard]] std::vector<Benchmark> all_benchmarks(double scale = 1.0);

}  // namespace a64fxcc::kernels
