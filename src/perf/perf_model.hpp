#pragma once
// ECM/roofline-class execution-time estimator.
//
// Consumes (a) a kernel after a compiler model's passes annotated and
// restructured it, (b) a machine model, and (c) an execution
// configuration (ranks x threads placed over NUMA domains), and predicts
// the time-to-solution of the region of interest.
//
// Per statement, the model derives: compute cycles (vector vs scalar,
// divides, transcendentals), load/store-port cycles (incl. gather cost
// for vectorized indirect/strided access), loop overhead (reduced by
// unrolling/pipelining/vectorization), data traffic at the L1<->L2 and
// L2<->memory boundaries (footprint-based fit analysis with line-size
// overfetch — this is where A64FX's 256-byte lines punish strided code),
// and a latency term for non-prefetchable access streams.  The statement
// time is the max of these (optimistic overlap), statements sum, and
// threading/runtime overheads are added.

#include <string>
#include <string_view>

#include "analysis/access.hpp"
#include "ir/kernel.hpp"
#include "machine/machine.hpp"
#include "perf/small_vec.hpp"

namespace a64fxcc::perf {

/// Placement of an execution on a machine.  Produced by the runtime
/// module's placement logic; constructible directly for tests.
struct ExecConfig {
  int ranks = 1;
  int threads = 1;            ///< per rank
  int domains_used = 1;       ///< NUMA domains covered by all workers
  int threads_per_domain = 1; ///< workers sharing one domain's L2/HBM
  /// True when a single rank's threads span multiple CMGs: its shared
  /// data lives in one CMG's HBM and remote accesses cross the ring,
  /// costing bandwidth (the reason 1x48 loses to 4x12 on A64FX).
  bool numa_spanning = false;

  [[nodiscard]] int total_workers() const noexcept { return ranks * threads; }
};

/// Fill derived placement fields for `ranks x threads` on machine `m`
/// following the Fujitsu MPI runtime's compact per-CMG mapping
/// (--mpi max-proc-per-node behaviour described in the paper).
[[nodiscard]] ExecConfig make_config(int ranks, int threads,
                                     const machine::Machine& m);

/// Machine-independent codegen-quality knobs produced by a compiler
/// model.  They capture what pass structure alone cannot: instruction
/// selection / register allocation / scheduling quality (core_factor),
/// how close the emitted SIMD code gets to the ISA's potential
/// (vec_efficiency — GCC 10's young SVE backend vs Fujitsu's tuned one),
/// and the OpenMP runtime's synchronization cost (barrier_factor —
/// libgomp vs Fujitsu's runtime).
struct CodegenProfile {
  double core_factor = 1.0;     ///< multiplier on all core-side cycles (>1 worse)
  double vec_efficiency = 1.0;  ///< (0,1]: effective SIMD lanes = 1+(W-1)*eff
  double barrier_factor = 1.0;  ///< multiplier on OMP fork/barrier costs
};

struct StmtBreakdown {
  std::string loop_var;    ///< innermost loop variable name
  double seconds = 0;
  double comp_s = 0, l1_s = 0, l2_s = 0, mem_s = 0, lat_s = 0, ovh_s = 0;
  double flops = 0;
  double mem_bytes = 0;
  /// Always one of the static literals "latency"/"core"/"L2"/"mem" —
  /// a view keeps evaluation free of per-statement string traffic.
  std::string_view bottleneck;
};

/// detail's inline capacity: covers the statement count of nearly every
/// suite kernel, so an evaluation allocates nothing (deeper kernels
/// spill to the heap and simply pay the old allocation).
inline constexpr std::size_t kDetailInline = 4;

struct PerfResult {
  /// User-provided so value-initialization (PerfResult{}) runs the
  /// member initializers instead of first zero-filling the whole object:
  /// the inline detail buffer is raw storage that needs no memset.
  PerfResult() noexcept {}

  double seconds = 0;
  double total_flops = 0;
  double mem_bytes = 0;          ///< traffic at the memory boundary
  double runtime_overhead_s = 0; ///< OMP fork/barrier + MPI costs
  double joules = 0;             ///< energy-to-solution (machine power model)
  /// Of the dominant statement; same static literals as StmtBreakdown.
  std::string_view bottleneck;
  SmallVec<StmtBreakdown, kDetailInline> detail;

  [[nodiscard]] double gflops() const {
    return seconds > 0 ? total_flops / seconds / 1e9 : 0;
  }
  [[nodiscard]] double mem_gbs() const {
    return seconds > 0 ? mem_bytes / seconds / 1e9 : 0;
  }
};

[[nodiscard]] PerfResult estimate(const ir::Kernel& k,
                                  const machine::Machine& m,
                                  const ExecConfig& cfg,
                                  const CodegenProfile& prof = {});

}  // namespace a64fxcc::perf
