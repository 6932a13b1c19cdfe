// bench_compile — throughput of the compile pipeline hot path.
//
// Three measurements, emitted human-readable and as one JSON line
// (stdout) so the perf trajectory can be tracked across commits:
//   1. pipelines-compiled/second of compile() — the analysis::Manager
//      memoizing with preserved-analyses invalidation — over all five
//      paper compilers x the full kernel suite;
//   2. the analysis cache hit/miss/invalidation totals of that sweep —
//      how much analysis work the pipeline actually shares;
//   3. a warm-tier worker sweep (1,2,4,8,16,32,48 workers over one
//      shared cache::Service): cells/second when nearly every compile
//      lookup is a cache hit — the scaling curve of the tier's
//      lock-free read path, emitted as "worker_sweep" in the JSON line.
//
// Usage: bench_compile [--scale=f] [--reps=N]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cache/service.hpp"

namespace {

using namespace a64fxcc;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<kernels::Benchmark> study_suite(double scale) {
  auto suite = kernels::polybench_suite(scale);
  for (auto& b : kernels::microkernel_suite(scale))
    suite.push_back(std::move(b));
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
    const auto suite = study_suite(scale);
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
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) reps = std::atoi(argv[i] + 7);
  }
  if (reps < 1) reps = 1;

  std::printf("== Compile pipeline hot path (all suites, scale %g) ==\n",
              args.scale);

  // ---- 1. pipelines/sec ----
  // Real workload shape: every (compiler x kernel) pair of the study,
  // compiled straight through compile() (no CompileCache — this measures
  // the pipeline itself, not outcome sharing).
  const auto suite = kernels::all_benchmarks(args.scale);
  const auto specs = compilers::paper_compilers();
  const std::size_t pipelines = suite.size() * specs.size();

  // Analysis traffic first (outside the timed loop).
  analysis::ManagerCounters totals;
  for (const auto& bench : suite) {
    for (const auto& spec : specs) {
      const auto out = compilers::compile(spec, bench.kernel);
      totals.hits += out.analysis_cache.hits;
      totals.misses += out.analysis_cache.misses;
      totals.invalidations += out.analysis_cache.invalidations;
    }
  }

  // Best-of-reps (the harness's own best-of-10 methodology): each rep
  // sweeps every pipeline once; the minimum rep time is the noise-free
  // estimate of the sweep cost.
  double acc = 0;  // defeat dead-code elimination
  double t_pipe = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& bench : suite)
      for (const auto& spec : specs)
        acc += compilers::compile(spec, bench.kernel).time_multiplier;
    const double t = seconds_since(t0);
    if (r == 0 || t < t_pipe) t_pipe = t;
  }
  const double pps = static_cast<double>(pipelines) / t_pipe;
  std::printf("  %8.0f pipelines/s  (best of %d sweeps of %zu pipelines;"
              " %.3fs)\n",
              pps, reps, pipelines, t_pipe);

  // ---- 2. analysis cache traffic of the sweep ----
  const double total_q = static_cast<double>(totals.hits + totals.misses);
  const double hit_rate =
      total_q > 0 ? static_cast<double>(totals.hits) / total_q : 0.0;
  std::printf("  analysis cache: %d hits / %d misses / %d invalidations"
              " (%.1f%% hit rate)\n",
              totals.hits, totals.misses, totals.invalidations,
              100.0 * hit_rate);

  // ---- 3. warm-tier worker sweep ----
  // One cache::Service shared by every run: the first study fills it,
  // the sweep then measures cells/second per worker count with (nearly)
  // every compile lookup a hit — the tier's lock-free read path under
  // increasing concurrency.
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

  benchutil::claim("compile.analysis_cache_hit_rate", ">0", hit_rate);

  // Machine-readable trajectory line (one JSON object, stdout).  `acc`
  // is folded in as a checksum so the compiler cannot elide the loops.
  std::printf(
      "\n{\"bench\":\"compile\",\"scale\":%g,\"reps\":%d,"
      "\"pipelines\":%zu,\"cached_pipelines_per_sec\":%.1f,"
      "\"analysis_cache_hits\":%d,\"analysis_cache_misses\":%d,"
      "\"analysis_cache_invalidations\":%d,\"analysis_cache_hit_rate\":%.4f,"
      "\"worker_sweep\":%s,\"checksum\":%.6g}\n",
      args.scale, reps, pipelines, pps, totals.hits, totals.misses,
      totals.invalidations, hit_rate, sweep_json.c_str(), acc);

  return 0;
}
