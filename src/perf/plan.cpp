#include "perf/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "cache/fingerprint.hpp"
#include "ir/fingerprint.hpp"

namespace a64fxcc::perf {

namespace {

using analysis::AccessPattern;
using analysis::LoopChain;
using analysis::PatternKind;
using ir::Kernel;
using ir::Loop;
using machine::Machine;

/// Fraction of a cache's capacity an access's working set may occupy and
/// still be considered resident across outer-loop iterations (LRU with
/// competing streams evicts sets close to full capacity).
constexpr double kResidencyShare = 0.6;

/// Line fetches of one access from beyond a cache of size `capacity`
/// over the whole statement execution, replayed from the plan's tables.
///
/// Per-access residency analysis (same steps as the pre-split model):
///  1. Tiny hot tensors (<=10% of the cache) stay resident: cold misses
///     only (high associativity protects frequently-touched lines).
///  2. Find the access's own fit depth l_eff: the outermost subchain
///     whose line-granular footprint fits in kResidencyShare * capacity.
///  3. Each enclosing loop above l_eff multiplies the traffic unless the
///     access's data below that loop is resident (invariant loop over a
///     fitting working set = full reuse).
///  4. If the deepest traffic-multiplying loop walks the tensor with a
///     stride smaller than the line, consecutive iterations share lines:
///     amortize (unit-stride streams cost bytes/line, not a line each).
double traffic_lines(const AccessPlan& ap, const StmtPlan& sp, double capacity,
                     double line) {
  if (ap.tensor_lines * line <= 0.1 * capacity) return ap.tensor_lines;  // (1)

  const std::size_t d = ap.footprint.size() - 1;
  std::size_t l_eff = d;
  for (std::size_t l = 0; l <= d; ++l) {
    if (ap.footprint[l] * line <= kResidencyShare * capacity) {
      l_eff = l;
      break;
    }
  }

  double lines = ap.footprint[l_eff];
  std::ptrdiff_t innermost_varying = -1;
  for (std::size_t dd = 0; dd < l_eff; ++dd) {
    const bool varies = ap.varies[dd] != 0;
    const bool resident_below =
        ap.footprint[dd + 1] * line <= kResidencyShare * capacity;
    if (varies || !resident_below) {
      lines *= sp.trip[dd];
      if (varies) innermost_varying = static_cast<std::ptrdiff_t>(dd);
    }
  }
  if (innermost_varying >= 0 && ap.affine) {
    const double sb =
        ap.depth_stride_bytes[static_cast<std::size_t>(innermost_varying)];
    if (sb > 0 && sb < line) lines *= sb / line;  // (4)
  }
  return lines;
}

}  // namespace

std::uint64_t plan_fingerprint(std::uint64_t kernel_fp, const Machine& m) {
  // The explicit seed keeps the perf-input fingerprint *domain* disjoint
  // from the compiler-input one (cache::Hasher's default): the same
  // kernel must never collide across the two key spaces.
  cache::Hasher h(0x9d0f1a2b3c4d5e6fULL);
  // Kernel as a perf-model input: its annotated fingerprint (IR,
  // annotations, variable names, bound parameter values and metadata),
  // the key runtime::RowMemo stores on each outcome.
  h.add(kernel_fp);
  // Machine model: every field the estimator reads.
  h.add(m.name);
  h.add(m.clock_ghz);
  h.add(m.domains);
  h.add(m.cores_per_domain);
  h.add(m.l1_bytes);
  h.add(m.l2_bytes);
  h.add(m.line_bytes);
  h.add(m.l1_bw_bytes_cycle);
  h.add(m.l2_bw_bytes_cycle_core);
  h.add(m.l2_bw_gbs_domain);
  h.add(m.mem_bw_gbs_domain);
  h.add(m.mem_latency_ns);
  h.add(m.l2_latency_ns);
  h.add(m.mlp);
  h.add(m.hw_prefetch_strided);
  h.add(m.hw_prefetch_efficiency);
  h.add(m.prefetch_max_stride_bytes);
  h.add(m.simd_lanes_f64);
  h.add(m.fma_pipes);
  h.add(m.scalar_fp_per_cycle);
  h.add(m.scalar_int_per_cycle);
  h.add(m.scalar_div_cycles);
  h.add(m.vec_div_cycles_lane);
  h.add(m.special_cycles);
  h.add(m.gather_cycles_elem);
  h.add(m.loop_overhead_cycles);
  h.add(m.watts_base);
  h.add(m.watts_core_active);
  h.add(m.watts_core_idle);
  h.add(m.watts_per_gbs);
  h.add(m.omp_barrier_us);
  h.add(m.omp_fork_us);
  h.add(m.mpi_latency_us);
  return h.h;
}

std::uint64_t config_fingerprint(const ExecConfig& cfg,
                                 const CodegenProfile& prof) {
  cache::Hasher h(0x9d0f1a2b3c4d5e6fULL);  // same domain seed as plans
  h.add(cfg.ranks);
  h.add(cfg.threads);
  h.add(cfg.domains_used);
  h.add(cfg.threads_per_domain);
  h.add(cfg.numa_spanning);
  h.add(prof.core_factor);
  h.add(prof.vec_efficiency);
  h.add(prof.barrier_factor);
  return h.h;
}

KernelPlan analyze(const Kernel& k, const Machine& m) {
  return analyze(k, m, plan_fingerprint(ir::annotated_fingerprint(k), m));
}

KernelPlan analyze(const Kernel& k, const Machine& m,
                   std::uint64_t fingerprint) {
  KernelPlan plan;
  plan.machine = m;
  plan.parallel = k.meta().parallel;
  plan.fingerprint = fingerprint;
  const double line = static_cast<double>(m.line_bytes);

  auto stats = analysis::collect_stmt_stats(k);
  plan.stmts.reserve(stats.size());
  for (auto& st : stats) {
    StmtPlan sp;
    const Loop* inner = st.ctx.innermost();
    sp.loop_var = inner != nullptr ? k.var_name(inner->var) : "<top>";
    sp.ops = st.ops;
    sp.iters = st.iters;
    // stats is local and read no further for trips: take them over.
    sp.trip = std::move(st.trip);

    const LoopChain chain(st.ctx.loops);
    const std::size_t d = chain.size();

    const Loop* par = nullptr;
    for (const Loop* l : st.ctx.loops)
      if (l->annot.parallel) par = l;
    if (par != nullptr) {
      sp.has_parallel = true;
      const auto it = std::find(st.ctx.loops.begin(), st.ctx.loops.end(), par);
      sp.par_trip =
          sp.trip[static_cast<std::size_t>(it - st.ctx.loops.begin())];
    }

    sp.vector_width = inner != nullptr ? inner->annot.vector_width : 1;
    sp.unroll = inner != nullptr ? std::max(1, inner->annot.unroll) : 1;
    sp.pipelined = inner != nullptr && inner->annot.pipelined;
    sp.sw_prefetch = inner != nullptr && inner->annot.prefetch_dist > 0;

    sp.accesses.reserve(st.accesses.size());
    for (const AccessPattern& p : st.accesses) {
      AccessPlan ap;
      const ir::Access& a = *p.access;
      ap.kind = p.kind;
      ap.affine = a.is_affine();
      ap.elem_size = static_cast<double>(p.elem_size);
      ap.tensor_lines = std::max(
          1.0, static_cast<double>(p.tensor_elems) * ap.elem_size / line);
      ap.stride_bytes =
          static_cast<double>(std::llabs(p.stride_elems)) * ap.elem_size;
      ap.footprint.reserve(d + 1);
      for (std::size_t l = 0; l <= d; ++l)
        ap.footprint.push_back(
            analysis::footprint_lines(a, chain, sp.trip, l, k, line));
      ap.varies.reserve(d);
      ap.depth_stride_bytes.reserve(d);
      for (std::size_t dd = 0; dd < d; ++dd) {
        bool varies = true;
        double sb = 0;
        if (ap.affine) {
          const auto s = analysis::linear_stride(a, chain[dd]->var, k);
          varies = s.has_value() && *s != 0;
          if (s.has_value())
            sb = static_cast<double>(std::llabs(*s)) * ap.elem_size;
        }
        ap.varies.push_back(varies ? 1 : 0);
        ap.depth_stride_bytes.push_back(sb);
      }
      // Traffic past the per-core L1 never depends on the placement:
      // close it out here so evaluate() only replays the L2 share.
      ap.l1_lines = traffic_lines(ap, sp, m.l1_bytes, line);
      sp.accesses.push_back(std::move(ap));
    }
    plan.stmts.push_back(std::move(sp));
  }

  // Distinct parallel loops and their outer execution counts (the
  // fork/barrier events per kernel run).  Iteration order matches the
  // pre-split model exactly so the sum associates identically.
  {
    std::vector<const Loop*> seen;
    double total_execs = 0;
    for (std::size_t si = 0; si < stats.size(); ++si) {
      const auto& st = stats[si];
      for (std::size_t dd = 0; dd < st.ctx.loops.size(); ++dd) {
        const Loop* l = st.ctx.loops[dd];
        if (!l->annot.parallel) continue;
        if (std::find(seen.begin(), seen.end(), l) != seen.end()) continue;
        seen.push_back(l);
        double n = 1.0;
        for (std::size_t d2 = 0; d2 < dd; ++d2) n *= plan.stmts[si].trip[d2];
        total_execs += n;
      }
    }
    plan.parallel_execs = total_execs;
  }
  return plan;
}

PerfResult evaluate(const KernelPlan& plan, const ExecConfig& cfg,
                    const CodegenProfile& prof, bool want_detail) {
  PerfResult result;
  const Machine& m = plan.machine;
  const double hz = m.cycles_per_second();

  double total_seconds = 0;
  if (want_detail) result.detail.reserve(plan.stmts.size());
  // Dominant bottleneck = that of the costliest statement, tracked
  // online (same compare sequence as a post-hoc scan over detail).
  double worst = -1;
  StmtBreakdown scratch;

  for (const StmtPlan& sp : plan.stmts) {
    StmtBreakdown& b = want_detail ? result.detail.emplace_back() : scratch;
    if (want_detail) b.loop_var = sp.loop_var;

    // ---- parallelism --------------------------------------------------
    int P = 1;
    if (sp.has_parallel) {
      // Trip count of the parallel loop bounds achievable workers.
      P = std::max(1, std::min(cfg.total_workers(),
                               static_cast<int>(std::floor(sp.par_trip))));
    }
    const int domains_used = sp.has_parallel ? cfg.domains_used : 1;

    // ---- per-iteration core cycles ------------------------------------
    const int w_marked = sp.vector_width;
    // Codegen quality shrinks the effective SIMD width (kept continuous:
    // partial vectorization, predication overheads and peel loops make
    // effective lane counts fractional in practice).
    const double W =
        w_marked > 1
            ? std::max(1.0, 1.0 + (w_marked - 1) * prof.vec_efficiency)
            : 1.0;
    const int unroll_f = sp.unroll;
    const bool pipelined = sp.pipelined;
    const bool sw_prefetch = sp.sw_prefetch;

    // Check for strided/indirect accesses under vectorization: these use
    // gather/scatter-class instructions.
    double gather_elems = 0;
    double stream_bytes_iter = 0;
    int scalar_accesses = 0;  // load/store *instructions* when W == 1
    for (const AccessPlan& ap : sp.accesses) {
      switch (ap.kind) {
        case PatternKind::Invariant: break;
        case PatternKind::Unit:
          stream_bytes_iter += ap.elem_size;
          ++scalar_accesses;
          break;
        case PatternKind::Strided:
          if (W > 1)
            gather_elems += 1;  // strided vector access = gather-class
          else {
            stream_bytes_iter += ap.elem_size;
            ++scalar_accesses;
          }
          break;
        case PatternKind::Indirect:
          gather_elems += 1;  // scalar or vector: pointer-chase class
          break;
      }
    }

    double cyc_comp = 0;
    if (W > 1) {
      cyc_comp += sp.ops.flops / (static_cast<double>(m.fma_pipes) * W);
      // Divides/specials pipeline per lane: partial vectorization gets a
      // proportional share of the benefit, floored at the full-vector
      // per-element cost.
      cyc_comp += sp.ops.divs *
                  std::max(m.vec_div_cycles_lane, m.scalar_div_cycles / W);
      cyc_comp += sp.ops.specials *
                  std::max(m.special_cycles / 4.0, m.special_cycles / W);
    } else {
      cyc_comp += sp.ops.flops / m.scalar_fp_per_cycle;
      cyc_comp += sp.ops.divs * m.scalar_div_cycles;
      cyc_comp += sp.ops.specials * m.special_cycles;
    }
    cyc_comp += sp.ops.int_ops / m.scalar_int_per_cycle;

    // L1 port pressure: vector code moves whole lines per instruction;
    // scalar code issues one <=8-byte load/store per element, limited by
    // the two load/store pipes — the reason scalar STREAM cannot come
    // close to saturating HBM2 even with 48 cores.
    double cyc_l1 = W > 1 ? stream_bytes_iter / m.l1_bw_bytes_cycle
                          : scalar_accesses * 0.5;
    cyc_l1 += gather_elems * m.gather_cycles_elem;

    double cyc_ovh =
        m.loop_overhead_cycles / (static_cast<double>(unroll_f) * W);
    if (pipelined) cyc_ovh *= 0.5;
    // Scalar (non-vectorized) loops on the narrow A64FX core pay the
    // full per-iteration issue cost; software pipelining also overlaps
    // some of the compute chain.
    if (pipelined) cyc_comp *= 0.8;

    const double cyc_per_iter = (cyc_comp + cyc_l1 + cyc_ovh) * prof.core_factor;
    const double iters_per_worker = sp.iters / P;
    b.comp_s = cyc_per_iter * iters_per_worker / hz;

    // ---- cache/memory traffic -----------------------------------------
    const double l2_cap = m.l2_bytes / std::max(1, cfg.threads_per_domain);
    const double line = static_cast<double>(m.line_bytes);

    double l2_lines = 0;         // crossing L1<->L2
    double mem_lines = 0;        // crossing L2<->memory
    double nonpf_mem_lines = 0;  // memory fetches with unhidden latency
    double nonpf_l2_lines = 0;   // L2 hits with unhidden latency
    for (const AccessPlan& ap : sp.accesses) {
      const double t1 = ap.l1_lines;
      const double t2 = traffic_lines(ap, sp, l2_cap, line);
      l2_lines += t1;
      const double tm = std::min(t1, t2);
      mem_lines += tm;
      // Large strides defeat the hardware prefetcher (page-granular on
      // A64FX); only software prefetch recovers them.
      const bool large_stride = ap.stride_bytes >= m.prefetch_max_stride_bytes;
      if (ap.kind == PatternKind::Indirect) {
        // Never prefetchable: full latency exposure.
        nonpf_mem_lines += tm;
        nonpf_l2_lines += std::max(0.0, t1 - tm);
      } else if (ap.kind == PatternKind::Strided) {
        // Hardware prefetchers track small strides; software prefetch
        // helps but is dropped on TLB misses, so page-crossing strides
        // keep a substantial exposed-latency fraction either way.
        double eff;
        if (!large_stride) {
          eff = sw_prefetch ? 0.97
                            : (m.hw_prefetch_strided ? m.hw_prefetch_efficiency
                                                     : 0.0);
        } else {
          eff = sw_prefetch ? 0.35 : 0.0;
        }
        nonpf_mem_lines += tm * (1.0 - eff);
        nonpf_l2_lines += std::max(0.0, t1 - tm) * (1.0 - eff);
      }
      // Unit/Invariant: fully covered by any prefetcher.
    }
    const double l2_bytes_total = l2_lines * line;
    const double mem_bytes_total = mem_lines * line;

    // L2 bandwidth: per-core and per-domain limits.
    const double t_l2_core =
        (l2_bytes_total / P) / (m.l2_bw_bytes_cycle_core * hz);
    const double t_l2_dom =
        l2_bytes_total / (m.l2_bw_gbs_domain * 1e9 * domains_used);
    b.l2_s = std::max(t_l2_core, t_l2_dom);

    // NUMA-spanning ranks pay ring-bus crossings on remote HBM accesses.
    const double numa_eff = cfg.numa_spanning && sp.has_parallel ? 0.7 : 1.0;
    b.mem_s =
        mem_bytes_total / (m.mem_bw_gbs_domain * 1e9 * domains_used * numa_eff);

    // Latency: unhidden misses are serialized per worker up to MLP.
    // Vectorized gathers issue a whole vector's element accesses at once,
    // exposing more independent misses to the memory system — one of the
    // concrete ways better SVE codegen pays off on irregular code.
    const double mlp_eff = m.mlp * (1.0 + (W - 1.0) * 0.25);
    b.lat_s = (nonpf_mem_lines / P) * (m.mem_latency_ns * 1e-9) / mlp_eff +
              (nonpf_l2_lines / P) * (m.l2_latency_ns * 1e-9) / mlp_eff;

    b.ovh_s = 0;  // folded into comp_s via cyc_ovh
    b.flops = sp.ops.total() * sp.iters;
    b.mem_bytes = mem_bytes_total;

    // Exposed miss latency does not overlap the dependent compute that
    // consumes the loaded values (pointer chases, gather reductions), so
    // core time and latency add; bandwidth-limited terms overlap both.
    b.seconds = std::max({b.comp_s + b.lat_s, b.l2_s, b.mem_s});
    // Worksharing imbalance: ragged chunk finishes cost a tail that grows
    // with the threads per rank — one reason MPI-heavy placements beat
    // the recommended 4x12 on "legacy" codes (Sec. 5).
    if (sp.has_parallel && cfg.threads > 1)
      b.seconds *= 1.0 + 0.015 * std::log2(static_cast<double>(cfg.threads));
    const double mx = std::max({b.comp_s, b.l2_s, b.mem_s, b.lat_s});
    b.bottleneck = mx == b.lat_s    ? "latency"
                   : mx == b.comp_s ? "core"
                   : mx == b.l2_s   ? "L2"
                                    : "mem";

    total_seconds += b.seconds;
    result.total_flops += b.flops;
    result.mem_bytes += b.mem_bytes;
    if (b.seconds > worst) {
      worst = b.seconds;
      result.bottleneck = b.bottleneck;
    }
  }

  // ---- threading-runtime overheads ------------------------------------
  // OpenMP fork/barrier costs grow with the threads per rank; MPI ranks
  // pay synchronization latency per parallel phase.  Splitting the two is
  // what differentiates 48x1 / 4x12 / 1x48 placements for legacy codes.
  double overhead = 0;
  if (cfg.total_workers() > 1) {
    const double total_execs = plan.parallel_execs;
    if (cfg.threads > 1) {
      double omp = total_execs * (m.omp_barrier_us + m.omp_fork_us * 0.1) *
                   1e-6 * std::log2(std::max(2, cfg.threads)) *
                   prof.barrier_factor;
      if (cfg.numa_spanning) omp *= 1.5;  // cross-CMG barriers
      overhead += omp;
    }
    if (cfg.ranks > 1 && plan.parallel == ir::ParallelModel::MpiOpenMP) {
      // Synchronization latency plus per-rank injection contention: many
      // ranks per node raise the sync/halo cost, countering the
      // imbalance advantage of thread-light placements.
      overhead += total_execs * 1e-6 *
                  (m.mpi_latency_us * std::log2(std::max(2, cfg.ranks)) +
                   0.2 * cfg.ranks);
    }
  }
  result.runtime_overhead_s = overhead;

  result.seconds = total_seconds + overhead;

  // Energy-to-solution: base + busy/idle core split + memory I/O energy.
  {
    const int total_cores = m.total_cores();
    const int busy = std::min(cfg.total_workers(), total_cores);
    const double node_w =
        m.watts_base + busy * m.watts_core_active +
        (total_cores - busy) * m.watts_core_idle +
        (result.seconds > 0 ? result.mem_bytes / result.seconds / 1e9 : 0.0) *
            m.watts_per_gbs * 1e0;
    result.joules = node_w * result.seconds;
  }
  return result;
}

}  // namespace a64fxcc::perf
