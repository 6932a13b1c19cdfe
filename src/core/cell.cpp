#include "core/cell.hpp"

namespace a64fxcc::core {

CellResult evaluate_cell(const runtime::Harness& h, const StudyOptions& opt,
                         const kernels::Benchmark& bench,
                         const compilers::CompilerSpec& spec,
                         runtime::RowMemo& memo, int attempt) {
  CellResult res;
  runtime::MeasuredRun& m = res.run;
  const runtime::RunContext ctx{
      .crash = opt.faults.crashes(opt.seed, bench.name(), spec.name, attempt),
      .attempt = attempt,
      .tracer = opt.tracer};
  try {
    m = h.run(spec, bench, memo, ctx, &res.metrics);
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
  return res;
}

}  // namespace a64fxcc::core
