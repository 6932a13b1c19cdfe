// e2e_bench — the repository's end-to-end benchmark: whole paper-scale
// studies (108 benchmarks x 5 compilers, scale 1.0) driven through the
// library's public API, with a correctness gate on every operation and a
// separately traced run that breaks the CPU down by layer.  NOTES.md
// gives the workloads, the metrics and what each should predict.
//
// Usage:
//   e2e_bench --workload W --seed N --seconds S --trace 0|1
//             --expect expected_cells.tsv --work-dir DIR
//   e2e_bench --self-test --expect expected_cells.tsv [--seed N]
//   e2e_bench --write-expect FILE [--seed N]   (deliberate re-baseline)
//
// A human report goes to stderr; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "gate.hpp"
#include "layers.hpp"
#include "machine/machine.hpp"
#include "workloads.hpp"

namespace {

using namespace a64fxcc;
using namespace e2e;

/// Set-up repetitions per run; setup_s is the median of their CPU time
/// (process plus reaped children), which the host's shifting core grant
/// leaves steady where wall time is not.
constexpr int kSetupReps = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string expect;
  std::string work_dir = "e2e-work";
  std::string write_expect;
  bool self_test = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v);
      else if (flag == "--expect") a.expect = v;
      else if (flag == "--work-dir") a.work_dir = v;
      else if (flag == "--write-expect") a.write_expect = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Wall ms of a fixed integer spin on `threads` threads at once: the
/// host's core grant shows as spin(n) / spin(1) rising above 1.
double spin_ms(int threads) {
  constexpr std::uint64_t kIters = 20'000'000;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(threads));
  const double t0 = wall_s();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&out, t] {
      std::uint64_t x = static_cast<std::uint64_t>(t) + 1;
      for (std::uint64_t i = 0; i < kIters; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      out[static_cast<std::size_t>(t)] = x;
    });
  for (auto& th : pool) th.join();
  return (wall_s() - t0) * 1e3;
}

double median_spin_ms(int threads) {
  return median({spin_ms(threads), spin_ms(threads), spin_ms(threads)});
}

/// One timed operation and its gate verdict.
struct Timed {
  OpOutput out;
  double cpu_ms = 0;
  double wall_ms = 0;
  std::string error;  ///< empty when the operation passed the gate
};

Timed timed_op(Kind k, const Context& ctx, std::uint64_t seed,
               const Expectation& expect, int max_cores, Probe* probe = nullptr) {
  Timed t;
  const double c0 = total_cpu_s();
  const double w0 = wall_s();
  try {
    t.out = run_op(k, ctx, seed, probe);
  } catch (const std::exception& e) {
    t.error = e.what();
  }
  t.wall_ms = (wall_s() - w0) * 1e3;
  t.cpu_ms = (total_cpu_s() - c0) * 1e3;
  if (t.error.empty()) t.error = check_table(t.out.table, expect, max_cores);
  return t;
}

void report_error(std::uint64_t seed, const std::string& error, std::uint64_t& failed) {
  if (failed++ < 5) std::fprintf(stderr, "  op seed %llu FAILED: %s\n",
                                 static_cast<unsigned long long>(seed), error.c_str());
}

/// The run's remaining state after the measurement loop.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

Outcome run_plain(Kind k, const Context& ctx, const Args& a,
                  const Expectation& expect, int max_cores) {
  Outcome o;
  std::vector<double> cpu_ms, wall_ms;
  std::string first_csv;
  const double deadline = wall_s() + a.seconds;
  for (std::uint64_t i = 0; o.attempted == 0 || wall_s() < deadline; ++i) {
    const std::uint64_t seed = a.seed + i;
    ++o.attempted;
    Timed t = timed_op(k, ctx, seed, expect, max_cores);
    if (!t.out.shard_dir.empty()) std::filesystem::remove_all(t.out.shard_dir);
    if (!t.error.empty()) {
      report_error(seed, t.error, o.failed);
      continue;
    }
    if (i == 0) first_csv = std::move(t.out.csv);
    cpu_ms.push_back(t.cpu_ms);
    wall_ms.push_back(t.wall_ms);
  }
  if (!first_csv.empty()) {
    const std::string err = identity_check(k, ctx, a.seed, first_csv);
    if (!err.empty()) report_error(a.seed, err, o.failed);
    std::fprintf(stderr, "  byte-identity contract: %s\n",
                 k == Kind::PaperCold ? "n/a" : err.empty() ? "holds" : "BROKEN");
  }

  const std::size_t n = cpu_ms.size();
  const double q = tail_q(n);
  std::fprintf(stderr,
               "  %zu ops ok of %llu; tail quantile p%.0f (>= 10 samples beyond "
               "it when n >= 100)\n"
               "  study cpu ms  p50 %.3f  p%.0f %.3f  min %.3f\n"
               "  study wall ms p50 %.3f  p%.0f %.3f  min %.3f\n",
               n, static_cast<unsigned long long>(o.attempted), q * 100,
               median(cpu_ms), q * 100, quantile(cpu_ms, q), quantile(cpu_ms, 0),
               median(wall_ms), q * 100, quantile(wall_ms, q), quantile(wall_ms, 0));
  // The wall-time tail stays on stderr only: on the multi-core workloads
  // it follows the host's core grant from run to run (see NOTES.md).
  o.metrics = {
      {"study_cpu_ms.p50", median(cpu_ms), "ms"},
      {"study_cpu_ms.p90", quantile(cpu_ms, q), "ms"},
      {"study_wall_ms.p50", median(wall_ms), "ms"},
  };
  return o;
}

Outcome run_traced(Kind k, const Context& ctx, const Args& a,
                   const Expectation& expect, int max_cores) {
  Outcome o;
  const Inventory inv = build_inventory(ctx.suite);
  const std::string scratch = ctx.work_dir + "/replay-journal.jsonl";
  std::filesystem::create_directories(ctx.work_dir);

  std::vector<double> untraced_ms, traced_ms;
  std::map<std::string, std::vector<double>> series;  // per-layer samples
  std::vector<std::string> layer_order;
  const auto add = [&series](const std::string& name, double v) {
    series[name].push_back(v);
  };

  const double deadline = wall_s() + a.seconds;
  for (std::uint64_t i = 0; o.attempted == 0 || wall_s() < deadline; ++i) {
    const std::uint64_t seed = a.seed + i;
    // The same seed traced and untraced, alternating which runs first.
    Timed plain;
    Probe probe;
    Timed traced;
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass + static_cast<int>(i)) % 2 == 0) {
        plain = timed_op(k, ctx, seed, expect, max_cores);
        if (!plain.out.shard_dir.empty()) std::filesystem::remove_all(plain.out.shard_dir);
      } else {
        traced = timed_op(k, ctx, seed, expect, max_cores, &probe);
      }
    }
    o.attempted += 2;
    std::string error = !plain.error.empty() ? plain.error : traced.error;
    std::vector<Layer> layers;
    WorkCounts counts;
    if (error.empty()) {
      try {
        collect(k, traced.out, probe);
        counts = work_counts(probe.counters, inv);
        if (k == Kind::ProcsJournal) {
          counts.journal_lines = shard_lines(traced.out.shard_dir);
          counts.journal_loads = 1;  // the resume pass; the reducer loads its own
          counts.reduces = 2;        // one per Supervisor pass
        }
        layers = replay_layers(inv, counts, traced.out.table, seed, ctx.suite,
                               traced.out.shard_dir, scratch);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    if (!traced.out.shard_dir.empty()) std::filesystem::remove_all(traced.out.shard_dir);
    if (!error.empty()) {
      report_error(seed, error, o.failed);
      continue;
    }
    untraced_ms.push_back(plain.cpu_ms);
    traced_ms.push_back(traced.cpu_ms);

    {
      const double t0 = thread_cpu_s();
      const auto suite = kernels::all_benchmarks(1.0);
      add("kernels.build_ms", (thread_cpu_s() - t0) * 1e3);
    }
    if (layer_order.empty())
      for (const Layer& l : layers) layer_order.push_back(l.name);
    for (const Layer& l : layers) {
      add(l.name + ".calls", l.calls);
      add(l.name + ".cpu_ms", l.cpu_ms);
    }
    const auto& c = probe.counters;
    const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
      return hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                               : 0.0;
    };
    add("analysis.hits", static_cast<double>(c.counter("analysis_cache_hits")));
    add("analysis.misses", static_cast<double>(c.counter("analysis_cache_misses")));
    add("analysis.hit_ratio", ratio(c.counter("analysis_cache_hits"),
                                    c.counter("analysis_cache_misses")));
    for (const char* cache : {"compile", "plan", "estimate"}) {
      const std::uint64_t h = c.counter(std::string(cache) + "_cache_hits");
      const std::uint64_t m = c.counter(std::string(cache) + "_cache_misses");
      add(std::string("cache.") + cache + "_hit_ratio", ratio(h, m));
      add(std::string("cache.") + cache + "_lookups", static_cast<double>(h + m));
    }
    double entries = 0, bytes = 0;
    for (const auto& cs : probe.cache_stats) {
      entries += static_cast<double>(cs.stats.entries);
      bytes += static_cast<double>(cs.stats.bytes);
    }
    add("cache.entries", entries);
    add("cache.bytes", bytes);
    add("runtime.explore_trials", static_cast<double>(counts.explore_trials));
    add("runtime.candidates", static_cast<double>(inv.candidates));
    for (const char* phase : {"compile", "explore", "measure"})
      add(std::string("runtime.") + phase + "_phase_ms", self_ms(probe.spans, phase));
    const auto cells = [&c](runtime::CellStatus st) {
      return static_cast<double>(c.counter(obs::status_counter_name(st)));
    };
    add("cells.ok", cells(runtime::CellStatus::Ok));
    add("cells.compile_error", cells(runtime::CellStatus::CompileError));
    add("cells.runtime_error", cells(runtime::CellStatus::RuntimeError));
    add("distrib.workers_spawned",
        probe.fresh.workers_spawned + probe.resumed.workers_spawned);
    add("distrib.resumed_cells", static_cast<double>(probe.resumed.resumed_cells));
    add("distrib.resume_wall_ms", probe.resume_wall_s * 1e3);
  }

  // Deterministic work counters must repeat exactly from operation to
  // operation (worker compile counts under procs_journal depend on which
  // worker leased which cell, so they are reported but not required to).
  bool repeat = true;
  for (const char* name : {"perf.evaluate.calls", "runtime.noise_sample.calls",
                           "runtime.explore_trials", "cells.ok",
                           "compilers.compile.calls", "perf.analyze.calls"}) {
    const auto& v = series[name];
    if (std::all_of(v.begin(), v.end(), [&](double x) { return x == v.front(); }))
      continue;
    repeat = false;
    std::fprintf(stderr, "  counter %s varies across operations: %.0f..%.0f%s\n",
                 name, *std::min_element(v.begin(), v.end()),
                 *std::max_element(v.begin(), v.end()),
                 k == Kind::ProcsJournal ? " (worker partitioning)" : "");
  }
  if (repeat)
    std::fprintf(stderr, "  work counters repeat exactly across %zu traced ops\n",
                 untraced_ms.size());

  const auto med = [&series](const std::string& name) { return median(series[name]); };
  const double study_ms = median(untraced_ms);
  double attributed = 0;
  for (const std::string& l : layer_order) attributed += med(l + ".cpu_ms");
  const double unattributed = study_ms - attributed;
  const double overhead = median(traced_ms) / study_ms - 1.0;

  std::fprintf(stderr, "  layer table (%zu traced ops, medians per op):\n", untraced_ms.size());
  std::fprintf(stderr, "    %-24s %10s %12s %8s\n", "layer", "calls", "self cpu ms", "share");
  for (const std::string& l : layer_order)
    std::fprintf(stderr, "    %-24s %10.0f %12.3f %7.1f%%\n", l.c_str(), med(l + ".calls"),
                 med(l + ".cpu_ms"), 100 * med(l + ".cpu_ms") / study_ms);
  std::fprintf(stderr, "    %-24s %10s %12.3f %7.1f%%\n", "unattributed", "",
               unattributed, 100 * unattributed / study_ms);
  std::fprintf(stderr, "    %-24s %10s %12.3f %7.1f%%\n", "= study cpu (untraced)", "",
               study_ms, 100.0);
  std::fprintf(stderr, "    set-up: kernels::all_benchmarks %.3f ms\n", med("kernels.build_ms"));
  std::fprintf(stderr, "  tracing overhead: %+.1f%% (traced %.3f ms vs untraced %.3f ms CPU)\n",
               100 * overhead, median(traced_ms), study_ms);
  std::fprintf(stderr, "  phase span self wall ms: compile %.3f  explore %.3f  measure %.3f\n",
               med("runtime.compile_phase_ms"), med("runtime.explore_phase_ms"),
               med("runtime.measure_phase_ms"));

  // Per-layer metric, the per-operation series it reports the median of,
  // and its unit.
  static const struct {
    const char* metric;
    const char* series;
    const char* unit;
  } kLayerMetrics[] = {
      {"kernels.build_ms", "kernels.build_ms", "ms"},
      {"compilers.compile_calls", "compilers.compile.calls", "count"},
      {"compilers.compile_cpu_ms", "compilers.compile.cpu_ms", "ms"},
      {"analysis.hits", "analysis.hits", "count"},
      {"analysis.misses", "analysis.misses", "count"},
      {"analysis.hit_ratio", "analysis.hit_ratio", "ratio"},
      {"perf.analyze_calls", "perf.analyze.calls", "count"},
      {"perf.analyze_cpu_ms", "perf.analyze.cpu_ms", "ms"},
      {"perf.evaluate_calls", "perf.evaluate.calls", "count"},
      {"perf.evaluate_cpu_ms", "perf.evaluate.cpu_ms", "ms"},
      {"cache.compile_hit_ratio", "cache.compile_hit_ratio", "ratio"},
      {"cache.compile_lookups", "cache.compile_lookups", "count"},
      {"cache.plan_hit_ratio", "cache.plan_hit_ratio", "ratio"},
      {"cache.plan_lookups", "cache.plan_lookups", "count"},
      {"cache.estimate_hit_ratio", "cache.estimate_hit_ratio", "ratio"},
      {"cache.estimate_lookups", "cache.estimate_lookups", "count"},
      {"cache.entries", "cache.entries", "count"},
      {"cache.bytes", "cache.bytes", "bytes"},
      {"runtime.noise_draws", "runtime.noise_sample.calls", "count"},
      {"runtime.noise_cpu_ms", "runtime.noise_sample.cpu_ms", "ms"},
      {"runtime.explore_trials", "runtime.explore_trials", "count"},
      {"runtime.candidates", "runtime.candidates", "count"},
      {"runtime.compile_phase_ms", "runtime.compile_phase_ms", "ms"},
      {"runtime.explore_phase_ms", "runtime.explore_phase_ms", "ms"},
      {"runtime.measure_phase_ms", "runtime.measure_phase_ms", "ms"},
      {"report.render_csv_ms", "report.render_csv.cpu_ms", "ms"},
      {"core.summarize_ms", "core.summarize.cpu_ms", "ms"},
      {"core.journal_lines", "core.journal_append.calls", "count"},
      {"core.journal_append_ms", "core.journal_append.cpu_ms", "ms"},
      {"core.journal_load_ms", "core.journal_load.cpu_ms", "ms"},
      {"distrib.workers_spawned", "distrib.workers_spawned", "count"},
      {"distrib.resumed_cells", "distrib.resumed_cells", "count"},
      {"distrib.reduce_ms", "distrib.reduce.cpu_ms", "ms"},
      {"distrib.resume_wall_ms", "distrib.resume_wall_ms", "ms"},
      {"cells.ok", "cells.ok", "count"},
      {"cells.compile_error", "cells.compile_error", "count"},
      {"cells.runtime_error", "cells.runtime_error", "count"},
  };
  for (const auto& m : kLayerMetrics) o.metrics.push_back({m.metric, med(m.series), m.unit});
  o.metrics.push_back({"layers.study_cpu_ms", study_ms, "ms"});
  o.metrics.push_back({"layers.unattributed_ms", unattributed, "ms"});
  o.metrics.push_back({"obs.trace_overhead", overhead, "ratio"});
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload W --seed N --seconds S --trace 0|1 "
                 "--expect FILE --work-dir DIR | --self-test --expect FILE | "
                 "--write-expect FILE\n");
    return 2;
  }
  const int max_cores = machine::a64fx().total_cores();
  try {
    if (!a.write_expect.empty()) {
      const auto suite = kernels::all_benchmarks(1.0);
      const auto table = core::Study(study_options(a.seed)).run_suite(suite);
      std::ofstream out(a.write_expect);
      out << expectation_text(table);
      return out ? 0 : 1;
    }
    Expectation expect;
    std::string err;
    if (!load_expectation(a.expect, expect, err)) {
      std::fprintf(stderr, "e2e_bench: %s\n", err.c_str());
      return 2;
    }

    if (a.self_test) {
      const auto failures =
          e2e::self_test(expect, kernels::all_benchmarks(1.0), a.seed, max_cores);
      for (const auto& f : failures) std::fprintf(stderr, "self-test FAILED: %s\n", f.c_str());
      std::fprintf(stderr, "self-test: %s\n", failures.empty() ? "pass" : "FAIL");
      return failures.empty() ? 0 : 1;
    }

    const auto kind = parse_kind(a.workload);
    if (!kind) {
      std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n", a.workload.c_str());
      return 2;
    }
    Context ctx;
    ctx.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    ctx.work_dir = a.work_dir;
    std::fprintf(stderr, "e2e_bench %s seed %llu, %.0f s, trace %d, %d hardware threads\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 a.seconds, a.trace, ctx.nproc);

    // Set-up, repeated; the last one stays for the measurement.
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const double t0 = total_cpu_s();
      setup(*kind, ctx, a.seed);
      setup_s.push_back(total_cpu_s() - t0);
    }
    // The gate's own self-test guards every run's verdict.
    const auto failures = e2e::self_test(expect, ctx.suite, a.seed, max_cores);
    for (const auto& f : failures) std::fprintf(stderr, "  gate self-test FAILED: %s\n", f.c_str());
    const double spin1 = median_spin_ms(1);
    const double spin_n = median_spin_ms(ctx.nproc);
    std::fprintf(stderr, "  host spin ms: 1 thread %.2f, %d threads %.2f\n", spin1,
                 ctx.nproc, spin_n);

    Outcome o = a.trace == 0 ? run_plain(*kind, ctx, a, expect, max_cores)
                             : run_traced(*kind, ctx, a, expect, max_cores);
    if (a.trace == 0) {
      std::fprintf(stderr, "  set-up cpu s median %.4f over %d\n", median(setup_s),
                   kSetupReps);
      o.metrics.push_back({"setup_s", median(setup_s), "s"});
      o.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
      o.metrics.push_back({"op_success_rate",
                           static_cast<double>(o.attempted - o.failed) /
                               static_cast<double>(o.attempted),
                           "ratio"});
    } else {
      o.metrics.push_back({"host.spin1_ms", spin1, "ms"});
      o.metrics.push_back({"host.spin4_ms", spin_n, "ms"});
    }
    std::filesystem::remove_all(ctx.work_dir);
    print_result(failures.empty() && o.failed == 0, o.attempted, o.failed, o.metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
