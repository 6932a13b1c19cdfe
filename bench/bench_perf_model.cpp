// bench_perf_model — throughput of the performance-model hot path.
//
// Three measurements, emitted human-readable and as one JSON line
// (stdout) so the perf trajectory can be tracked across commits:
//   1. placements-evaluated/second of the pre-split path (one full
//      perf::estimate per placement) vs the plan/evaluate split
//      (perf::analyze once per kernel, perf::evaluate per placement),
//      over the explore-heavy suites' real placement grids and compiled
//      kernels;
//   2. the estimate/plan cache hit rates of one study — how much of the
//      explore/measure/reference work is actually shared;
//   3. a warm-tier worker sweep (1,2,4,8,16,32,48 workers over one
//      shared cache::Service): cells/second when nearly every lookup is
//      a cache hit — the scaling curve of the tier's lock-free read
//      path, emitted as "worker_sweep" in the JSON line.
//
// Usage: bench_perf_model [--scale=f] [--jobs=N] [--reps=N]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cache/service.hpp"
#include "perf/plan.hpp"

namespace {

using namespace a64fxcc;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One compiled kernel with the placement grid its benchmark explores.
struct EvalPoint {
  std::shared_ptr<const compilers::CompileOutcome> out;
  std::vector<perf::ExecConfig> cfgs;
};

std::vector<kernels::Benchmark> explore_suite(double scale) {
  auto suite = kernels::top500_suite(scale);
  for (auto& b : kernels::fiber_suite(scale)) suite.push_back(std::move(b));
  return suite;
}

/// Best-of-`reps` wall time of one suite run on a shared warm tier, plus
/// the cell count — the warm sweep's unit of work.
double warm_study_seconds(double scale, int jobs, int reps,
                          cache::Service* tier, std::size_t* cells) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    core::StudyOptions opt;
    opt.scale = scale;
    opt.jobs = jobs;
    opt.cache_service = tier;
    const core::Study study(std::move(opt));
    const auto suite = explore_suite(scale);
    if (cells != nullptr)
      *cells = suite.size() * study.options().compilers.size();
    const auto t0 = std::chrono::steady_clock::now();
    (void)study.run_suite(suite);
    const double t = seconds_since(t0);
    if (r == 0 || t < best) best = t;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::parse(argc, argv);
  int jobs = 4;
  int reps = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) jobs = std::atoi(argv[i] + 7);
    if (std::strncmp(argv[i], "--reps=", 7) == 0) reps = std::atoi(argv[i] + 7);
  }
  if (reps < 1) reps = 1;

  const auto m = machine::a64fx();
  std::printf("== Perf-model hot path (top500+fiber, scale %g) ==\n",
              args.scale);

  // ---- 1. placements-evaluated/sec: pre-split vs plan/evaluate ----
  // Real workload shape: every (benchmark x compiler) cell's compiled
  // kernel evaluated at every placement its explore grid visits.
  const runtime::Harness harness(m);
  std::vector<EvalPoint> points;
  std::size_t evals = 0;
  for (const auto& bench : explore_suite(args.scale)) {
    const auto placements = harness.candidate_placements(
        bench.traits, bench.kernel.meta().parallel);
    for (const auto& spec : compilers::paper_compilers()) {
      EvalPoint pt;
      pt.out = std::make_shared<compilers::CompileOutcome>(
          compilers::compile(spec, bench.kernel));
      if (!pt.out->ok()) continue;
      for (const auto& p : placements)
        pt.cfgs.push_back(perf::make_config(p.ranks, p.threads, m));
      evals += pt.cfgs.size();
      points.push_back(std::move(pt));
    }
  }

  const int eval_reps = reps * 2;
  double acc = 0;  // defeat dead-code elimination
  const auto t0_legacy = std::chrono::steady_clock::now();
  for (int r = 0; r < eval_reps; ++r)
    for (const auto& pt : points)
      for (const auto& cfg : pt.cfgs)
        acc += perf::estimate(*pt.out->kernel, m, cfg, pt.out->profile).seconds;
  const double t_legacy = seconds_since(t0_legacy);

  const auto t0_split = std::chrono::steady_clock::now();
  for (int r = 0; r < eval_reps; ++r)
    for (const auto& pt : points) {
      const auto plan = perf::analyze(*pt.out->kernel, m);
      for (const auto& cfg : pt.cfgs)
        acc += perf::evaluate(plan, cfg, pt.out->profile).seconds;
    }
  const double t_split = seconds_since(t0_split);

  const double total_evals = static_cast<double>(evals) * eval_reps;
  const double legacy_eps = total_evals / t_legacy;
  const double split_eps = total_evals / t_split;
  std::printf("  pre-split:      %8.0f placements/s  (%zu placements x %d reps"
              " in %.3fs)\n",
              legacy_eps, evals, eval_reps, t_legacy);
  std::printf("  plan/evaluate:  %8.0f placements/s  (analyze once per kernel"
              " in the loop)\n",
              split_eps);
  std::printf("  hot-path speedup: %.2fx\n", split_eps / legacy_eps);

  // ---- 2. cache hit rates of one study ----
  core::StudyOptions opt;
  opt.scale = args.scale;
  opt.jobs = jobs;
  const core::Study study(std::move(opt));
  (void)study.run_suite(explore_suite(args.scale));
  const auto es = study.harness().estimate_cache().stats();
  const auto ps = study.harness().estimate_cache().plan_stats();
  std::printf(
      "  estimate cache: %llu hits / %llu misses (%.1f%% hit rate); "
      "plans: %llu hits / %llu misses\n",
      static_cast<unsigned long long>(es.hits),
      static_cast<unsigned long long>(es.misses), 100.0 * es.hit_rate(),
      static_cast<unsigned long long>(ps.hits),
      static_cast<unsigned long long>(ps.misses));

  // ---- 3. warm-tier worker sweep ----
  // One cache::Service shared by every run: the first study fills it,
  // the sweep then measures cells/second per worker count with (nearly)
  // every compile/plan/estimate lookup a hit — the tier's lock-free
  // read path under increasing concurrency.
  cache::Service tier;
  (void)warm_study_seconds(args.scale, 1, 1, &tier, nullptr);
  std::printf("  warm-tier sweep (cells/s, best of %d):\n", reps);
  std::string sweep_json = "[";
  for (const int w : {1, 2, 4, 8, 16, 32, 48}) {
    std::size_t cells = 0;
    const double t = warm_study_seconds(args.scale, w, reps, &tier, &cells);
    const double cps = static_cast<double>(cells) / t;
    std::printf("    jobs=%-3d %10.0f cells/s  (%.4fs)\n", w, cps, t);
    char item[96];
    std::snprintf(item, sizeof item, "%s{\"jobs\":%d,\"cells_per_sec\":%.1f}",
                  sweep_json.size() > 1 ? "," : "", w, cps);
    sweep_json += item;
  }
  sweep_json += "]";

  benchutil::claim("perf_model.hot_path_speedup", ">=2x", split_eps / legacy_eps);
  benchutil::claim("perf_model.estimate_cache_hit_rate", ">0", es.hit_rate());

  // Machine-readable trajectory line (one JSON object, stdout).  `acc`
  // is folded in as a checksum so the compiler cannot elide the loops.
  std::printf(
      "\n{\"bench\":\"perf_model\",\"scale\":%g,\"jobs\":%d,\"reps\":%d,"
      "\"placements\":%zu,\"legacy_evals_per_sec\":%.1f,"
      "\"split_evals_per_sec\":%.1f,\"hot_path_speedup\":%.4f,"
      "\"estimate_cache_hits\":%llu,\"estimate_cache_misses\":%llu,"
      "\"estimate_cache_hit_rate\":%.4f,\"plan_cache_hits\":%llu,"
      "\"plan_cache_misses\":%llu,\"worker_sweep\":%s,\"checksum\":%.6g}\n",
      args.scale, jobs, reps, evals, legacy_eps, split_eps,
      split_eps / legacy_eps, static_cast<unsigned long long>(es.hits),
      static_cast<unsigned long long>(es.misses), es.hit_rate(),
      static_cast<unsigned long long>(ps.hits),
      static_cast<unsigned long long>(ps.misses), sweep_json.c_str(), acc);

  return 0;
}
