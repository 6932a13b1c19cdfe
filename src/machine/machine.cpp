#include "machine/machine.hpp"

namespace a64fxcc::machine {

Machine a64fx() {
  Machine m;
  m.name = "A64FX";
  m.clock_ghz = 2.2;
  m.domains = 4;
  m.cores_per_domain = 12;
  m.l1_bytes = 64.0 * 1024;
  m.l2_bytes = 8.0 * 1024 * 1024;
  m.line_bytes = 256;
  m.l1_bw_bytes_cycle = 128;
  m.l2_bw_bytes_cycle_core = 64;
  m.l2_bw_gbs_domain = 900;
  m.mem_bw_gbs_domain = 256;
  m.mem_latency_ns = 180;
  m.l2_latency_ns = 26;  // ~56 cycles at 2.2 GHz
  m.mlp = 6;
  m.hw_prefetch_strided = true;
  m.hw_prefetch_efficiency = 0.8;
  m.prefetch_max_stride_bytes = 2048;
  m.simd_lanes_f64 = 8;
  m.fma_pipes = 2;
  // A64FX's narrow out-of-order core is comparatively weak on scalar and
  // irregular code — a central fact behind Figure 1.
  m.scalar_fp_per_cycle = 2;
  m.scalar_int_per_cycle = 2;
  m.scalar_div_cycles = 14;
  m.vec_div_cycles_lane = 4;
  m.special_cycles = 28;
  m.gather_cycles_elem = 2.0;
  m.loop_overhead_cycles = 2.0;
  m.omp_barrier_us = 1.0;
  m.omp_fork_us = 3.0;
  m.mpi_latency_us = 1.5;
  return m;
}

Machine a64fx_fx700() {
  Machine m = a64fx();
  m.name = "A64FX-FX700";
  m.clock_ghz = 1.8;
  // Same microarchitecture; lower clock scales the core-side costs, the
  // HBM2 stays: the compute-to-bandwidth ratio shifts toward bandwidth.
  return m;
}

Machine thunderx2() {
  Machine m;
  m.name = "ThunderX2";
  m.clock_ghz = 2.5;
  m.domains = 2;  // sockets
  m.cores_per_domain = 32;
  m.l1_bytes = 32.0 * 1024;
  m.l2_bytes = 32.0 * 1024 * 1024;  // L3, shared per socket
  m.line_bytes = 64;
  m.l1_bw_bytes_cycle = 32;   // 2x128-bit NEON loads
  m.l2_bw_bytes_cycle_core = 24;
  m.l2_bw_gbs_domain = 250;
  m.mem_bw_gbs_domain = 120;  // 8-channel DDR4-2666
  m.mem_latency_ns = 110;
  m.l2_latency_ns = 18;
  m.mlp = 10;
  m.hw_prefetch_strided = true;
  m.hw_prefetch_efficiency = 0.85;
  m.prefetch_max_stride_bytes = 4096;
  m.simd_lanes_f64 = 2;  // NEON-128
  m.fma_pipes = 2;
  m.scalar_fp_per_cycle = 3;  // 4-wide OoO core
  m.scalar_int_per_cycle = 3;
  m.scalar_div_cycles = 10;
  m.vec_div_cycles_lane = 4;
  m.special_cycles = 20;
  m.gather_cycles_elem = 1.5;
  m.loop_overhead_cycles = 1.0;
  m.omp_barrier_us = 0.8;
  m.omp_fork_us = 2.5;
  m.mpi_latency_us = 1.2;
  return m;
}

Machine xeon_cascadelake() {
  Machine m;
  m.name = "Xeon-CLX";
  m.clock_ghz = 3.2;  // single-thread turbo territory
  m.domains = 2;      // sockets
  m.cores_per_domain = 24;
  m.l1_bytes = 32.0 * 1024;
  m.l2_bytes = 36.0 * 1024 * 1024;  // L3, shared per socket
  m.line_bytes = 64;
  m.l1_bw_bytes_cycle = 128;
  m.l2_bw_bytes_cycle_core = 48;
  m.l2_bw_gbs_domain = 400;
  m.mem_bw_gbs_domain = 140;  // 6-channel DDR4-2933
  m.mem_latency_ns = 85;
  m.l2_latency_ns = 14;
  m.mlp = 12;
  m.hw_prefetch_strided = true;
  m.hw_prefetch_efficiency = 0.9;
  m.prefetch_max_stride_bytes = 4096;
  m.simd_lanes_f64 = 8;  // AVX-512
  m.fma_pipes = 2;
  // Wide out-of-order core: strong scalar/irregular performance.
  m.scalar_fp_per_cycle = 4;
  m.scalar_int_per_cycle = 4;
  m.scalar_div_cycles = 8;
  m.vec_div_cycles_lane = 2;
  m.special_cycles = 16;
  m.gather_cycles_elem = 1.2;
  m.loop_overhead_cycles = 0.6;
  m.omp_barrier_us = 0.6;
  m.omp_fork_us = 2.0;
  m.mpi_latency_us = 1.0;
  return m;
}

}  // namespace a64fxcc::machine
