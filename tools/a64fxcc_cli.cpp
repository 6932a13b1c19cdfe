// a64fxcc — command-line front end.
//
//   a64fxcc list [suite]                 list benchmarks (all suites or one)
//   a64fxcc table <suite> [--scale=f] [--csv|--json|--md]
//                                        Figure-2 block for one suite
//   a64fxcc run <benchmark> [--scale=f]  five-compiler row for one benchmark
//   a64fxcc status <suite|benchmark> [--scale=f] [--shard-dir=DIR]
//                                        progress of a --procs study
//   a64fxcc explain <benchmark> [compiler]
//                                        pass-decision provenance
//   a64fxcc obs report <A.json> [B.json] summarize or diff artifacts
//   a64fxcc show <benchmark> [compiler]  pass log + transformed IR
//   a64fxcc file <path> [compiler]       compile a .kernel file (textual
//                                        format, see src/ir/parser.hpp)
//   a64fxcc emit <benchmark> [compiler]  generate OpenMP C source
//   a64fxcc roofline <benchmark>         roofline placement per compiler
//
// Exit code 0 on success, 1 on bad usage / unknown names, 2 on errors.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "cache/service.hpp"
#include "codegen/codegen_c.hpp"
#include "core/args.hpp"
#include "core/study.hpp"
#include "distrib/status.hpp"
#include "distrib/supervisor.hpp"
#include "exec/process.hpp"
#include "ir/parser.hpp"
#include "ir/validate.hpp"
#include "ir/printer.hpp"
#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "report/explain.hpp"
#include "report/roofline.hpp"

namespace {

using namespace a64fxcc;

bool has_flag(int argc, char** argv, const char* f) {
  for (int i = 0; i < argc; ++i)
    if (std::strcmp(argv[i], f) == 0) return true;
  return false;
}

const char* arg_value(int argc, char** argv, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  for (int i = 0; i < argc; ++i)
    if (std::strncmp(argv[i], prefix, n) == 0) return argv[i] + n;
  return nullptr;
}

// Strict numeric flags: a present-but-malformed value is a usage error
// (diagnostic + exit 1), never the silent 0 that atoi/atof used to
// produce.  Absent flags leave *out untouched.
bool int_flag(int argc, char** argv, const char* prefix, int* out) {
  const char* v = arg_value(argc, argv, prefix);
  if (v == nullptr) return true;
  const auto n = core::args::parse_int(v);
  if (!n) {
    std::fprintf(stderr, "malformed %s'%s' (expected an integer)\n", prefix, v);
    return false;
  }
  *out = *n;
  return true;
}

bool double_flag(int argc, char** argv, const char* prefix, double* out) {
  const char* v = arg_value(argc, argv, prefix);
  if (v == nullptr) return true;
  const auto n = core::args::parse_double(v);
  if (!n) {
    std::fprintf(stderr, "malformed %s'%s' (expected a number)\n", prefix, v);
    return false;
  }
  *out = *n;
  return true;
}

/// --scale with strict parsing; false after a diagnostic on a
/// malformed or non-positive value.
bool arg_scale(int argc, char** argv, double* out) {
  if (!double_flag(argc, argv, "--scale=", out)) return false;
  if (*out <= 0) {
    std::fprintf(stderr, "--scale must be > 0\n");
    return false;
  }
  return true;
}

/// Worker threads for the job runner: absent = all hardware threads;
/// --jobs=1 runs every row on the calling thread (bit-identical results
/// at any count; see DESIGN.md "Execution engine").  An explicit
/// --jobs=0 (historically a silent alias for "all threads") or a
/// negative count is rejected.
bool arg_jobs(int argc, char** argv, int* out) {
  if (!int_flag(argc, argv, "--jobs=", out)) return false;
  if (arg_value(argc, argv, "--jobs=") != nullptr && *out <= 0) {
    std::fprintf(stderr, "--jobs must be >= 1 (omit for all threads)\n");
    return false;
  }
  return true;
}

/// Multi-process flags shared by `table` and `run`.  procs == 0 after a
/// successful parse means --procs was absent (in-process path).
struct DistribFlags {
  int procs = 0;
  std::string shard_dir;
  double lease_deadline = 30;
};

/// The shard directory `status` reads and `--procs` writes.
std::string shard_dir_flag(int argc, char** argv) {
  const char* v = arg_value(argc, argv, "--shard-dir=");
  return v != nullptr ? v : "a64fxcc-shards";
}

/// False (after a diagnostic) on a malformed value, and on a flag that
/// would be ignored: the --procs-only flags without --procs, and the
/// in-process-only one with it.
bool parse_distrib_flags(int argc, char** argv, DistribFlags* out) {
  if (!int_flag(argc, argv, "--procs=", &out->procs)) return false;
  if (arg_value(argc, argv, "--procs=") != nullptr && out->procs <= 0) {
    std::fprintf(stderr, "--procs must be >= 1\n");
    return false;
  }
  if (out->procs <= 0) {
    if (arg_value(argc, argv, "--shard-dir=") == nullptr &&
        arg_value(argc, argv, "--lease-deadline=") == nullptr)
      return true;
    std::fprintf(stderr,
                 "--shard-dir and --lease-deadline need --procs=N (only a "
                 "multi-process run uses them)\n");
    return false;
  }
  out->shard_dir = shard_dir_flag(argc, argv);
  if (!double_flag(argc, argv, "--lease-deadline=", &out->lease_deadline))
    return false;
  if (out->lease_deadline <= 0) {
    std::fprintf(stderr, "--lease-deadline must be > 0\n");
    return false;
  }
  if (has_flag(argc, argv, "--cache-stats")) {
    std::fprintf(stderr,
                 "--cache-stats cannot combine with --procs: the cache tier "
                 "lives in the worker processes\n");
    return false;
  }
  return true;
}

/// Fill the crash injection shared by `table` and `run`.  Returns false
/// (after printing a diagnostic) on a malformed --inject-faults.
bool apply_fault_flag(int argc, char** argv, core::StudyOptions& opt) {
  if (const char* v = arg_value(argc, argv, "--inject-faults=")) {
    const auto plan = runtime::FaultPlan::parse(v);
    if (!plan) {
      std::fprintf(stderr,
                   "malformed --inject-faults spec '%s' "
                   "(expected crash:P with P in [0,1])\n",
                   v);
      return false;
    }
    opt.faults = *plan;
  }
  return true;
}

/// Observability state shared by `table` and `run`: the stream renderer
/// (--log-level), the metrics registry (--metrics=out.json) and the span
/// tracer (--trace=out.json).
struct ObsSetup {
  exec::LogLevel level = exec::LogLevel::Quiet;
  const char* trace_path = nullptr;
  const char* metrics_path = nullptr;
  std::optional<exec::StreamSink> stream;
  std::optional<obs::MetricsSink> metrics;
  obs::Tracer tracer;
};

/// Parse the observability flags and attach sinks/tracer to `opt`.
/// Returns false (after a diagnostic) on a malformed --log-level.
bool apply_obs_flags(int argc, char** argv, core::StudyOptions& opt,
                     ObsSetup& obs) {
  if (const char* v = arg_value(argc, argv, "--log-level=")) {
    if (!exec::parse_log_level(v, &obs.level)) {
      std::fprintf(stderr,
                   "unknown --log-level '%s' (quiet|progress|debug)\n", v);
      return false;
    }
  }
  obs.trace_path = arg_value(argc, argv, "--trace=");
  obs.metrics_path = arg_value(argc, argv, "--metrics=");
  obs.stream.emplace(stderr, obs.level);
  if (obs.metrics_path != nullptr) {
    // Metrics wrap the stream renderer so both see the same events.
    obs.metrics.emplace(obs.level != exec::LogLevel::Quiet ? &*obs.stream
                                                           : nullptr);
    opt.sink = &*obs.metrics;
  } else if (obs.level != exec::LogLevel::Quiet) {
    opt.sink = &*obs.stream;
  }
  if (obs.trace_path != nullptr) opt.tracer = &obs.tracer;
  return true;
}

/// Write the --trace/--metrics artifacts after a study, through one
/// obs::Aggregator for both runners.  In process, the study's tracer is
/// the trace's one process row.  Under --procs (`sup` set) the parent's
/// tracer and sink see almost nothing (workers run in their own
/// processes), so every worker's telemetry shards from the shard dir
/// join the supervisor's lifecycle spans.  Either way the parent sink's
/// event-folded counters merge into the registry.  False (after a
/// diagnostic) when the shards cannot be read or an artifact cannot be
/// written — a requested artifact silently missing its workers' data is
/// the bug the shard merge exists for.
bool write_obs_artifacts(ObsSetup& obs, const distrib::Supervisor* sup) {
  if (obs.trace_path == nullptr && obs.metrics_path == nullptr) return true;
  obs::Aggregator agg;
  if (sup == nullptr) {
    agg.add_process(exec::current_pid(), "study", obs.tracer.records());
  } else if (!sup->load_telemetry(agg)) {
    std::fprintf(stderr, "cannot read telemetry shards under '%s'\n",
                 sup->options().shard_dir.c_str());
    return false;
  }
  if (obs.metrics) agg.add_registry(obs.metrics->snapshot());
  bool ok = true;
  if (obs.trace_path != nullptr &&
      !obs::write_artifact(obs.trace_path, agg.merged_trace_json())) {
    std::fprintf(stderr, "cannot write trace '%s'\n", obs.trace_path);
    ok = false;
  }
  if (obs.metrics_path != nullptr &&
      !obs::write_artifact(obs.metrics_path,
                           agg.merged_registry().to_json())) {
    std::fprintf(stderr, "cannot write metrics '%s'\n", obs.metrics_path);
    ok = false;
  }
  if (sup == nullptr) {
    if (obs.trace_path != nullptr && obs.level == exec::LogLevel::Debug)
      std::fputs(obs.tracer.summary_text().c_str(), stderr);
  } else if (obs.level != exec::LogLevel::Quiet) {
    const auto& st = agg.stats();
    std::fprintf(stderr,
                 "telemetry: %zu span(s) from %zu trace shard(s), %zu cell "
                 "record(s) from %zu metrics shard(s) (%zu superseded, %zu "
                 "torn lines skipped)\n",
                 st.spans, st.trace_shards, st.cells, st.metrics_shards,
                 st.duplicate_cells, st.skipped_lines);
  }
  return ok;
}

/// One stderr line per failed cell after a study completes (the table
/// itself shows only the short CE/RE/XX markers).
void report_failures(const report::Table& t) {
  std::size_t failed = 0;
  for (const auto& row : t.rows)
    for (const auto& cell : row.cells)
      if (!cell.valid()) ++failed;
  if (failed == 0) return;
  std::fprintf(stderr, "%zu cell(s) failed:\n", failed);
  for (const auto& row : t.rows)
    for (const auto& cell : row.cells)
      if (!cell.valid())
        std::fprintf(stderr, "  %-18s x %-10s %s: %s\n", row.benchmark.c_str(),
                     cell.compiler.c_str(), runtime::marker(cell.status),
                     cell.diagnostic.c_str());
}

std::vector<kernels::Benchmark> suite_by_name(const std::string& s, double scale) {
  if (s == "microkernel" || s == "micro") return kernels::microkernel_suite(scale);
  if (s == "polybench") return kernels::polybench_suite(scale);
  if (s == "top500") return kernels::top500_suite(scale);
  if (s == "ecp") return kernels::ecp_suite(scale);
  if (s == "fiber") return kernels::fiber_suite(scale);
  if (s == "spec-cpu") return kernels::spec_cpu_suite(scale);
  if (s == "spec-omp") return kernels::spec_omp_suite(scale);
  if (s == "all" || s.empty()) return kernels::all_benchmarks(scale);
  return {};
}

/// The benchmark called `name` as a one-row suite (empty when no
/// benchmark has that name).
std::vector<kernels::Benchmark> benchmark_by_name(const std::string& name,
                                                  double scale) {
  std::vector<kernels::Benchmark> one;
  for (auto& b : kernels::all_benchmarks(scale)) {
    if (b.name() != name) continue;
    one.push_back(std::move(b));
    break;
  }
  return one;
}

std::optional<compilers::CompilerSpec> compiler_by_name(const std::string& n) {
  for (auto& s : compilers::paper_compilers())
    if (s.name == n) return s;
  if (n == "ICC") return compilers::icc();
  if (n == "armclang") return compilers::armclang();
  if (n == "CrayCCE") return compilers::cray_cce();
  return std::nullopt;
}

/// Every flag `table`, `run` and `status` accept; an entry ending in '='
/// takes a value.  `run` takes the table's flags but the first four: it
/// renders one format and no decisions block.
constexpr std::string_view kTableFlags[] = {
    "--csv", "--json", "--md", "--decisions",
    "--scale=", "--jobs=", "--procs=", "--shard-dir=", "--lease-deadline=",
    "--log-level=", "--trace=", "--metrics=", "--inject-faults=",
    "--cache-stats",
};
constexpr auto kRunFlags = std::span(kTableFlags).subspan<4>();
constexpr std::string_view kStatusFlags[] = {"--scale=", "--shard-dir="};
/// The flags of `list`, `show`, `file`, `emit`, `explain`, `roofline`
/// and `obs report`: none yet.
constexpr std::span<const std::string_view> kNoFlags;

/// False (after a diagnostic) when the command got a flag outside
/// `known`: a misspelled, retired or unused flag must not run a command
/// that silently ignores it.
bool flags_known(int argc, char** argv,
                 std::span<const std::string_view> known) {
  const char* const* args = argv;
  const auto bad = core::args::unknown_flag(
      std::span(args + 2, static_cast<std::size_t>(argc - 2)), known);
  if (!bad) return true;
  std::fprintf(stderr, "unknown flag '%.*s' (run a64fxcc for usage)\n",
               static_cast<int>(bad->size()), bad->data());
  return false;
}

int cmd_list(const std::string& suite, int argc, char** argv) {
  if (!flags_known(argc, argv, kNoFlags)) return 1;
  const auto benches = suite_by_name(suite.empty() ? "all" : suite, 0.01);
  if (benches.empty()) {
    std::fprintf(stderr, "unknown suite '%s'\n", suite.c_str());
    return 1;
  }
  std::printf("%-18s %-12s %-8s %-8s %s\n", "benchmark", "suite", "lang",
              "model", "traits");
  for (const auto& b : benches) {
    std::string traits;
    if (b.traits.single_core) traits += "single-core ";
    if (b.traits.one_cmg) traits += "one-cmg ";
    if (b.traits.pow2_ranks_only) traits += "pow2-ranks ";
    if (!b.traits.explore_placements) traits += "no-explore ";
    if (b.traits.library_fraction > 0)
      traits += "lib=" + std::to_string(b.traits.library_fraction) + " ";
    const auto par = b.kernel.meta().parallel;
    std::printf("%-18s %-12s %-8s %-8s %s\n", b.name().c_str(),
                b.suite().c_str(),
                ir::to_string(b.kernel.meta().language).c_str(),
                par == ir::ParallelModel::Serial   ? "serial"
                : par == ir::ParallelModel::OpenMP ? "omp"
                                                   : "mpi+omp",
                traits.c_str());
  }
  return 0;
}

/// The study behind `table` and `run`: parse the jobs, distrib,
/// observability and fault flags, run `suite` in-process or under the
/// multi-process supervisor (reporting what a resume restored), list
/// failed cells on stderr, hand the table to `render`, then print
/// --cache-stats and write the --trace/--metrics artifacts.  Returns
/// the exit code.
int run_study(double scale, const std::vector<kernels::Benchmark>& suite,
              int argc, char** argv,
              const std::function<void(const report::Table&)>& render) {
  core::StudyOptions opt;
  opt.scale = scale;
  if (!arg_jobs(argc, argv, &opt.jobs)) return 1;
  DistribFlags df;
  if (!parse_distrib_flags(argc, argv, &df)) return 1;
  ObsSetup obs;
  if (!apply_obs_flags(argc, argv, opt, obs)) return 1;
  if (!apply_fault_flag(argc, argv, opt)) return 1;
  report::Table t;
  std::optional<core::Study> study;          // in-process path only
  std::optional<distrib::Supervisor> sup;    // multi-process path only
  if (df.procs > 0) {
    distrib::SupervisorOptions sopt;
    sopt.study = std::move(opt);
    sopt.procs = df.procs;
    sopt.shard_dir = df.shard_dir;
    sopt.lease_deadline_seconds = df.lease_deadline;
    sopt.telemetry =
        obs.trace_path != nullptr || obs.metrics_path != nullptr;
    sup.emplace(std::move(sopt));
    try {
      t = sup->run_suite(suite);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    const auto& st = sup->stats();
    if (st.resumed_cells + st.reopened_cells > 0)
      std::fprintf(stderr,
                   "resume: %zu cells restored, %zu reopened\n",
                   st.resumed_cells, st.reopened_cells);
  } else {
    study.emplace(std::move(opt));
    t = study->run_suite(suite);
  }
  report_failures(t);
  render(t);
  if (study) {
    if (has_flag(argc, argv, "--cache-stats"))
      std::fputs(study->cache_service().stats_text().c_str(), stderr);
    if (obs.metrics) obs.metrics->fold_cache_stats(study->cache_service());
  }
  return write_obs_artifacts(obs, sup ? &*sup : nullptr) ? 0 : 2;
}

int cmd_table(const std::string& suite, int argc, char** argv) {
  if (!flags_known(argc, argv, kTableFlags)) return 1;
  double scale = 0.25;
  if (!arg_scale(argc, argv, &scale)) return 1;
  const auto benches = suite_by_name(suite, scale);
  if (benches.empty()) {
    std::fprintf(stderr, "unknown suite '%s'\n", suite.c_str());
    return 1;
  }
  return run_study(scale, benches, argc, argv, [&](const report::Table& t) {
    if (has_flag(argc, argv, "--csv"))
      std::fputs(report::render_csv(t).c_str(), stdout);
    else if (has_flag(argc, argv, "--json"))
      std::fputs(report::render_json(t).c_str(), stdout);
    else if (has_flag(argc, argv, "--md"))
      std::fputs(report::render_markdown(t).c_str(), stdout);
    else
      std::fputs(report::render_ansi(t).c_str(), stdout);
    if (has_flag(argc, argv, "--decisions"))
      std::fputs(report::render_decisions_csv(t).c_str(), stdout);
    const auto s = core::summarize(t);
    std::printf("\nmedian best-compiler gain: %.3fx (mean %.3fx, peak %.3fx)\n",
                s.median_best_gain, s.mean_best_gain, s.max_best_gain);
  });
}

int cmd_run(const std::string& name, int argc, char** argv) {
  if (!flags_known(argc, argv, kRunFlags)) return 1;
  double scale = 0.25;
  if (!arg_scale(argc, argv, &scale)) return 1;
  const auto one = benchmark_by_name(name, scale);
  if (one.empty()) {
    std::fprintf(stderr, "unknown benchmark '%s' (try: a64fxcc list)\n",
                 name.c_str());
    return 1;
  }
  return run_study(scale, one, argc, argv, [](const report::Table& t) {
    std::fputs(report::render_ansi(t).c_str(), stdout);
  });
}

int show_kernel(const ir::Kernel& kernel, const std::string& compiler_name) {
  std::vector<compilers::CompilerSpec> specs;
  if (compiler_name.empty()) {
    specs = compilers::paper_compilers();
  } else if (auto s = compiler_by_name(compiler_name)) {
    specs.push_back(std::move(*s));
  } else {
    std::fprintf(stderr, "unknown compiler '%s'\n", compiler_name.c_str());
    return 1;
  }
  std::printf("source:\n%s\n", ir::to_string(kernel).c_str());
  const auto m = machine::a64fx();
  for (const auto& spec : specs) {
    std::printf("======== %s ========\n", spec.name.c_str());
    const auto out = compilers::compile(spec, kernel);
    std::fputs(out.log.c_str(), stdout);
    if (!out.ok()) {
      std::printf("=> fails by declared quirk\n\n");
      continue;
    }
    std::fputs(ir::to_string(*out.kernel).c_str(), stdout);
    const auto cfg = perf::make_config(1, 1, m);
    const auto r = perf::estimate(*out.kernel, m, cfg, out.profile);
    std::printf("=> %.6g s single-core (bottleneck %.*s)\n\n",
                r.seconds * out.time_multiplier,
                static_cast<int>(r.bottleneck.size()), r.bottleneck.data());
  }
  return 0;
}

int cmd_show(const std::string& name, const std::string& compiler_name,
             int argc, char** argv) {
  if (!flags_known(argc, argv, kNoFlags)) return 1;
  for (const auto& b : kernels::all_benchmarks(0.25))
    if (b.name() == name) return show_kernel(b.kernel, compiler_name);
  std::fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
  return 1;
}

int cmd_file(const std::string& path, const std::string& compiler_name,
             int argc, char** argv) {
  if (!flags_known(argc, argv, kNoFlags)) return 1;
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  try {
    const ir::Kernel k = ir::parse_kernel(ss.str());
    const auto diags = ir::validate(k);
    if (!diags.empty()) std::fputs(ir::to_string(diags).c_str(), stderr);
    if (!ir::is_valid(k)) return 2;
    return show_kernel(k, compiler_name);
  } catch (const ir::ParseError& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 2;
  }
}

int cmd_emit(const std::string& name, const std::string& compiler_name,
             int argc, char** argv) {
  if (!flags_known(argc, argv, kNoFlags)) return 1;
  for (const auto& b : kernels::all_benchmarks(0.25)) {
    if (b.name() != name) continue;
    if (compiler_name.empty()) {
      std::fputs(ir::emit_c(b.kernel).c_str(), stdout);
      return 0;
    }
    const auto spec = compiler_by_name(compiler_name);
    if (!spec) {
      std::fprintf(stderr, "unknown compiler '%s'\n", compiler_name.c_str());
      return 1;
    }
    const auto out = compilers::compile(*spec, b.kernel);
    if (!out.ok()) {
      std::fprintf(stderr, "%s fails on %s (declared quirk)\n",
                   compiler_name.c_str(), name.c_str());
      return 2;
    }
    std::fputs(ir::emit_c(*out.kernel).c_str(), stdout);
    return 0;
  }
  std::fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
  return 1;
}

int cmd_explain(const std::string& name, const std::string& compiler_name,
                int argc, char** argv) {
  if (!flags_known(argc, argv, kNoFlags)) return 1;
  for (const auto& b : kernels::all_benchmarks(0.25)) {
    if (b.name() != name) continue;
    std::vector<compilers::CompilerSpec> specs;
    if (compiler_name.empty()) {
      specs = compilers::paper_compilers();
    } else if (auto s = compiler_by_name(compiler_name)) {
      specs.push_back(std::move(*s));
    } else {
      std::fprintf(stderr, "unknown compiler '%s'\n", compiler_name.c_str());
      return 1;
    }
    const auto entries = report::explain_benchmark(b.kernel, specs);
    std::fputs(report::render_explain(name, entries).c_str(), stdout);
    return 0;
  }
  std::fprintf(stderr, "unknown benchmark '%s' (try: a64fxcc list)\n",
               name.c_str());
  return 1;
}

/// Progress of the `--procs` study of `name` (the suite or benchmark
/// that `table` or `run` took) at --scale, read from its lease log: the
/// log names cells only by key, so the keys come from here.
int cmd_status(const std::string& name, int argc, char** argv) {
  if (!flags_known(argc, argv, kStatusFlags)) return 1;
  double scale = 0.25;
  if (!arg_scale(argc, argv, &scale)) return 1;
  auto suite = suite_by_name(name, scale);
  if (suite.empty()) suite = benchmark_by_name(name, scale);
  if (suite.empty()) {
    std::fprintf(stderr,
                 "status needs the suite or benchmark its study ran, got "
                 "'%s' (usage: a64fxcc status <suite|benchmark>)\n",
                 name.c_str());
    return 1;
  }
  const std::string dir = shard_dir_flag(argc, argv);
  const auto st = distrib::read_status(
      dir, distrib::cell_keys(suite, core::StudyOptions{}));
  if (!st) {
    std::fprintf(stderr,
                 "no readable lease log under '%s' (a64fxcc table|run "
                 "--procs=N writes one)\n",
                 dir.c_str());
    return 2;
  }
  std::fputs(distrib::render_status(*st).c_str(), stdout);
  return 0;
}

int cmd_obs_report(int argc, char** argv) {
  if (!flags_known(argc, argv, kNoFlags)) return 1;
  std::vector<std::string> paths;
  for (int i = 3; i < argc; ++i)
    if (argv[i][0] != '-') paths.emplace_back(argv[i]);
  if (paths.empty() || paths.size() > 2) {
    std::fprintf(stderr, "usage: a64fxcc obs report <A.json> [B.json]\n");
    return 1;
  }
  std::string err;
  const auto base = obs::load_report_doc(paths[0], &err);
  if (!base) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  if (paths.size() == 1) {
    std::fputs(obs::summarize_report(*base).c_str(), stdout);
    return 0;
  }
  const auto cur = obs::load_report_doc(paths[1], &err);
  if (!cur) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  if (cur->kind != base->kind) {
    std::fprintf(stderr,
                 "cannot diff a metrics document against a trace document\n");
    return 1;
  }
  std::fputs(obs::diff_reports(*base, *cur).c_str(), stdout);
  return 0;
}

int cmd_roofline(const std::string& name, int argc, char** argv) {
  if (!flags_known(argc, argv, kNoFlags)) return 1;
  const auto m = machine::a64fx();
  for (const auto& b : kernels::all_benchmarks(0.25)) {
    if (b.name() != name) continue;
    std::vector<report::RooflinePoint> pts;
    for (const auto& spec : compilers::paper_compilers()) {
      const auto out = compilers::compile(spec, b.kernel);
      if (!out.ok()) continue;
      const auto cfg = perf::make_config(1, 12, m);
      const auto r = perf::estimate(*out.kernel, m, cfg, out.profile);
      pts.push_back(report::roofline_point(spec.name, r, m, 12, 1));
    }
    std::fputs(report::render_roofline(pts, m, 12, 1).c_str(), stdout);
    return 0;
  }
  std::fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
  return 1;
}

void usage() {
  std::fputs(
      "usage: a64fxcc <command> [args]\n"
      "  list [suite]                  suites: micro polybench top500 ecp fiber\n"
      "                                        spec-cpu spec-omp all\n"
      "  table <suite> [--scale=f] [--jobs=N] [--csv|--json|--md] [--decisions]\n"
      "                [--procs=N] [--shard-dir=DIR] [--lease-deadline=SECONDS]\n"
      "                [--log-level=quiet|progress|debug]\n"
      "                [--trace=PATH] [--metrics=PATH]\n"
      "                [--inject-faults=crash:P]\n"
      "                [--cache-stats]\n"
      "                                   # --cache-stats prints the hit/miss/\n"
      "                                   # entries/bytes of the cache tier's\n"
      "                                   # cell models to stderr (in process\n"
      "                                   # only: not with --procs)\n"
      "                                   # --jobs absent = all hardware\n"
      "                                   # threads, --jobs=1 = serial; output\n"
      "                                   # is bit-identical for any N\n"
      "                                   # --procs=N forks N crash-isolated\n"
      "                                   # worker processes leasing cells from\n"
      "                                   # a durable queue under --shard-dir\n"
      "                                   # (default a64fxcc-shards); a worker\n"
      "                                   # holding a lease past\n"
      "                                   # --lease-deadline (default 30s) is\n"
      "                                   # presumed hung and its cells\n"
      "                                   # re-leased.  Tables are byte-\n"
      "                                   # identical for any N, even across\n"
      "                                   # kill -9; re-running with the same\n"
      "                                   # --shard-dir resumes: finished cells\n"
      "                                   # restore, crashed ones re-run.\n"
      "                                   # --shard-dir and --lease-deadline\n"
      "                                   # need --procs\n"
      "                                   # --inject-faults=crash:P crashes\n"
      "                                   # each cell attempt with probability\n"
      "                                   # P, deterministically (a --procs\n"
      "                                   # worker really dies; in process the\n"
      "                                   # cell reads XX)\n"
      "                                   # --trace = Chrome trace_event JSON,\n"
      "                                   # --metrics = counters/histograms JSON;\n"
      "                                   # both diagnostics-only (identical\n"
      "                                   # tables on or off).  With --procs\n"
      "                                   # the artifacts merge every worker's\n"
      "                                   # telemetry shards plus the\n"
      "                                   # supervisor's lifecycle spans\n"
      "  run <benchmark> [--scale=f] [--jobs=N]\n"
      "                  [--procs=N] [--shard-dir=DIR] [--lease-deadline=s]\n"
      "                  [--inject-faults=crash:P]\n"
      "                  [--cache-stats]\n"
      "                  [--log-level=L] [--trace=PATH] [--metrics=PATH]\n"
      "  explain <benchmark> [compiler]\n"
      "                                   # pass-decision provenance diff:\n"
      "                                   # which pass fired/was blocked, and\n"
      "                                   # why, per compiler (plus per-pass\n"
      "                                   # analysis cache hit/miss traffic)\n"
      "  status <suite|benchmark> [--scale=f] [--shard-dir=DIR]\n"
      "                                   # progress of the --procs study of\n"
      "                                   # that table or run, read from its\n"
      "                                   # lease log: cells done,\n"
      "                                   # live leases and their pids, and\n"
      "                                   # done, running or stopped\n"
      "  obs report <A.json> [B.json]\n"
      "                                   # summarize one --trace/--metrics\n"
      "                                   # artifact, or diff two runs:\n"
      "                                   # counter deltas + phase-time\n"
      "                                   # deltas\n"
      "  show <benchmark> [compiler]\n"
      "  file <path.kernel> [compiler]\n"
      "  emit <benchmark> [compiler]      # generate OpenMP C source\n"
      "  roofline <benchmark>\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  const std::string a2 = argc > 2 ? argv[2] : "";
  const std::string a3 =
      argc > 3 && argv[3][0] != '-' ? argv[3] : "";
  if (cmd == "list") return cmd_list(a2, argc, argv);
  if (cmd == "table") return cmd_table(a2, argc, argv);
  if (cmd == "run") return cmd_run(a2, argc, argv);
  if (cmd == "explain") return cmd_explain(a2, a3, argc, argv);
  if (cmd == "status") return cmd_status(a2, argc, argv);
  if (cmd == "obs" && a2 == "report") return cmd_obs_report(argc, argv);
  if (cmd == "show") return cmd_show(a2, a3, argc, argv);
  if (cmd == "file") return cmd_file(a2, a3, argc, argv);
  if (cmd == "emit") return cmd_emit(a2, a3, argc, argv);
  if (cmd == "roofline") return cmd_roofline(a2, argc, argv);
  usage();
  return 1;
}
