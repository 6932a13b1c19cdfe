// TAB-EXPLORE — Sections 2.4/5: "for 'legacy' applications, the
// recommended usage model of 4 ranks and 12 threads per A64FX node
// results in suboptimal time-to-solution more often than not".
// For every exploration-eligible benchmark, compare the recommended
// placement against the explored best under FJtrad.

#include <cstdio>

#include "bench_common.hpp"
#include "stats/stats.hpp"

int main(int argc, char** argv) {
  using namespace a64fxcc;
  const auto args = benchutil::parse(argc, argv);

  const runtime::Harness h(machine::a64fx(), 42);
  const auto fj = compilers::fjtrad();

  int eligible = 0, suboptimal = 0;
  std::vector<double> saved;
  std::printf("Placement exploration vs recommended 4x12 (FJtrad):\n");
  std::printf("%-16s %-10s %10s %10s %8s  chosen\n", "benchmark", "suite",
              "t(4x12)", "t(best)", "gain");
  for (const auto& b : kernels::all_benchmarks(args.scale)) {
    if (!b.traits.explore_placements || b.traits.single_core) continue;
    if (b.kernel.meta().parallel == a64fxcc::ir::ParallelModel::Serial) continue;
    ++eligible;
    const auto m = h.run(fj, b);
    if (!m.valid()) continue;
    const runtime::Placement rec =
        h.recommended_for(b.kernel.meta().parallel, b.traits);
    const double t_rec = h.model_time(fj, b, rec);
    const double t_best = h.model_time(fj, b, m.placement);
    const double gain = t_rec / t_best;
    saved.push_back(gain);
    const bool sub = !(m.placement == rec) && gain > 1.005;
    if (sub) ++suboptimal;
    std::printf("%-16s %-10s %10.4g %10.4g %7.2fx  %dx%d%s\n", b.name().c_str(),
                b.suite().c_str(), t_rec, t_best, gain, m.placement.ranks,
                m.placement.threads, sub ? "  *" : "");
  }

  std::printf("\nPaper-vs-measured (TAB-EXPLORE, Sec. 5):\n");
  benchutil::claim("recommended 4x12 suboptimal", "more often than not",
                   100.0 * suboptimal / std::max(1, eligible), "%");
  benchutil::claim("median gain from exploration", "(not quantified)",
                   stats::median(saved));

  return 0;
}
