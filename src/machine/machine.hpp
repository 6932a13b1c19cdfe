#pragma once
// Analytical machine models.
//
// The paper's measurements ran on 2.2 GHz A64FX nodes of Fugaku (4 core
// memory groups x 12 cores, 64 KiB L1d, 8 MiB L2 per CMG, 256 GB/s HBM2
// per CMG, 512-bit SVE with two FMA pipes, 256-byte cache lines) and, for
// Figure 1, an Intel Xeon reference.  We model both at the granularity
// the performance deltas in the paper actually arise from: cache
// capacities and line sizes, bandwidths per core/domain, SIMD width and
// pipes, scalar throughput, memory latency and achievable MLP, and
// threading-runtime overheads.
//
// Numbers follow the A64FX datasheet and the micro-benchmarked values in
// Alappat et al. (PMBS'20) cited by the paper.

#include <cstdint>
#include <string>

namespace a64fxcc::machine {

struct Machine {
  std::string name;

  // Clock and topology.
  double clock_ghz = 2.2;
  int domains = 4;           ///< NUMA domains (A64FX: CMGs)
  int cores_per_domain = 12;

  // Memory hierarchy.
  double l1_bytes = 64.0 * 1024;          ///< per core
  double l2_bytes = 8.0 * 1024 * 1024;    ///< per domain (shared)
  int line_bytes = 256;
  double l1_bw_bytes_cycle = 128;         ///< per core (2x512-bit loads)
  double l2_bw_bytes_cycle_core = 64;     ///< per-core L2 limit
  double l2_bw_gbs_domain = 900;          ///< aggregate per domain
  double mem_bw_gbs_domain = 256;         ///< HBM2 per CMG
  double mem_latency_ns = 180;
  double l2_latency_ns = 26;              ///< L1-miss, L2-hit latency
  int mlp = 6;                            ///< outstanding demand misses
  bool hw_prefetch_strided = true;
  double hw_prefetch_efficiency = 0.8;    ///< latency hidden for streams
  /// Strides at or beyond this many bytes defeat the hardware stride
  /// prefetcher (page-crossing on A64FX with its large-page setup): each
  /// miss pays latency, bounded by MLP.  Software prefetch still helps.
  double prefetch_max_stride_bytes = 2048;

  // Per-core compute.
  int simd_lanes_f64 = 8;                 ///< 512-bit SVE
  int fma_pipes = 2;
  double scalar_fp_per_cycle = 2;         ///< scalar FP ops/cycle
  double scalar_int_per_cycle = 2;
  double scalar_div_cycles = 12;          ///< per scalar divide
  double vec_div_cycles_lane = 4;         ///< per lane, vectorized
  double special_cycles = 24;             ///< sqrt/exp/... per element
  double gather_cycles_elem = 2.0;        ///< vector gather, per element
  double loop_overhead_cycles = 2.0;      ///< per iteration (branch+index)

  // Power model (node level): the paper opens with Fugaku's TOP500 *and*
  // Green500 standing — energy-to-solution is time x power, so compiler
  // choice is an energy lever too.
  double watts_base = 60;        ///< uncore + memory static
  double watts_core_active = 5;  ///< per busy core
  double watts_core_idle = 1;    ///< per idle core
  double watts_per_gbs = 0.06;   ///< memory I/O energy per GB/s sustained

  // Parallel runtime (values are per-implementation in compiler models;
  // these are the hardware floors).
  double omp_barrier_us = 1.0;
  double omp_fork_us = 3.0;
  double mpi_latency_us = 1.5;

  [[nodiscard]] int total_cores() const noexcept {
    return domains * cores_per_domain;
  }
  [[nodiscard]] double cycles_per_second() const noexcept {
    return clock_ghz * 1e9;
  }
  /// Peak double-precision GFLOP/s of one core (FMA counted as 2 flops).
  [[nodiscard]] double peak_gflops_core() const noexcept {
    return clock_ghz * simd_lanes_f64 * fma_pipes * 2.0;
  }
};

/// Fujitsu A64FX (FX1000 class, as in Fugaku).
[[nodiscard]] Machine a64fx();

/// Intel Xeon (Cascade Lake class) reference node used for Figure 1.
/// Modelled with its L3 as the second cache level (the private L2 is
/// folded into an effective capacity) — adequate because Fig. 1's gaps
/// are compiler- and line-size-driven, not L2-size-driven.
[[nodiscard]] Machine xeon_cascadelake();

// ---- beyond-paper extensions ----------------------------------------------

/// Fujitsu FX700 (the commercial A64FX: 1.8 GHz, no assistant cores,
/// DDR-attached boot path but same HBM2) — the platform of the Ookami
/// and PEARC'21 studies the paper cites ([14], [15]).
[[nodiscard]] Machine a64fx_fx700();

/// Marvell ThunderX2 (32c, NEON-128, conventional DDR4) — the Arm
/// comparison point of the CLUSTER'20 studies the paper cites ([19],
/// [20]).
[[nodiscard]] Machine thunderx2();

}  // namespace a64fxcc::machine
