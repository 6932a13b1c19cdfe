#include "core/cell.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace a64fxcc::core {

namespace {

/// Longest real sleep one retry may cost; the *chosen* backoff is
/// recorded and reported to on_retry uncapped, but the actual wait is
/// bounded so fault-heavy tests stay fast.
constexpr double kMaxBackoffSleep = 0.05;

}  // namespace

double retry_backoff(double base, const std::string& benchmark,
                     const std::string& compiler, int attempt) {
  const std::uint64_t h = runtime::cell_stream(benchmark, compiler) ^
                          (0xBAC0FF00ULL + static_cast<std::uint64_t>(attempt));
  const double jitter = 0.5 + runtime::hash_u01(h);
  const int shift = std::min(attempt, 20);
  return base * static_cast<double>(1ULL << shift) * jitter;
}

CellResult evaluate_cell(const runtime::Harness& h, const StudyOptions& opt,
                         const kernels::Benchmark& bench,
                         const compilers::CompilerSpec& spec, int base_attempt,
                         const RetryFn& on_retry, const CrashFn& on_crash) {
  CellResult res;
  runtime::MeasuredRun& m = res.run;
  int attempt = base_attempt;
  for (;; ++attempt) {
    runtime::RunContext ctx;
    ctx.injected =
        opt.faults.decide(opt.seed, bench.name(), spec.name, attempt);
    ctx.deadline_seconds = opt.deadline_seconds;
    ctx.attempt = attempt;
    ctx.tracer = opt.tracer;
    // A real process death, when the caller can afford one: the hook
    // never returns.  Without a hook the harness classifies the crash
    // like any other injected fault.
    if (ctx.injected == runtime::FaultKind::Crash && on_crash)
      on_crash(attempt);
    try {
      m = h.run(spec, bench, ctx, &res.metrics);
    } catch (const runtime::CellError& e) {
      m = {};
      m.benchmark = bench.name();
      m.compiler = spec.name;
      m.status = e.status();
      m.diagnostic = e.what();
    } catch (const std::exception& e) {
      m = {};
      m.benchmark = bench.name();
      m.compiler = spec.name;
      m.status = runtime::CellStatus::Crashed;
      m.diagnostic = e.what();
    } catch (...) {
      m = {};
      m.benchmark = bench.name();
      m.compiler = spec.name;
      m.status = runtime::CellStatus::Crashed;
      m.diagnostic = "non-standard exception escaped the harness";
    }
    if (m.valid() || attempt - base_attempt >= opt.max_retries) break;
    const double backoff = retry_backoff(opt.retry_backoff_seconds,
                                         bench.name(), spec.name, attempt);
    res.metrics.backoffs.push_back(backoff);
    if (on_retry) on_retry(attempt, m, backoff);
    if (backoff > 0) {
      const auto backoff_span =
          obs::scoped(opt.tracer, "backoff", bench.name(), spec.name);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::min(backoff, kMaxBackoffSleep)));
    }
  }
  res.attempt = attempt;
  return res;
}

}  // namespace a64fxcc::core
