#pragma once
// `a64fxcc explain` — the pass-decision provenance report: for one
// benchmark, show per compiler which passes fired and which were
// blocked (and why), pass by pass, so the per-compiler performance gaps
// of Figure 2 can be root-caused the way the paper's Section V does
// ("icc reordered the nest, fcc did not").

#include <string>
#include <vector>

#include "compilers/compiler_model.hpp"
#include "report/figure2.hpp"

namespace a64fxcc::report {

/// One compiler's provenance for the benchmark under explanation.
struct ExplainEntry {
  std::string compiler;
  compilers::CompileOutcome::Status status =
      compilers::CompileOutcome::Status::Ok;
  std::string diagnostic;  ///< quirk citation when status != Ok
  std::vector<passes::Decision> decisions;
};

/// Compile `kernel` under each spec and collect its decision log.
/// Deterministic (compile() is pure), and cheap: outcomes come from the
/// same pure function the study memoizes.
[[nodiscard]] std::vector<ExplainEntry> explain_benchmark(
    const ir::Kernel& kernel,
    const std::vector<compilers::CompilerSpec>& specs);

/// Human-readable decision diff: a summary line per compiler, then one
/// block per pass with every compiler's fired/blocked verdict aligned —
/// differing verdicts are what explains the cell-to-cell gaps.
[[nodiscard]] std::string render_explain(
    const std::string& benchmark, const std::vector<ExplainEntry>& entries);

/// Machine-readable provenance column over a finished table:
/// "benchmark,compiler,decisions" with the compact per-cell summary
/// ("interchange+,tile-,...").  Kept separate from render_csv so the
/// default table output stays byte-identical with observability off.
[[nodiscard]] std::string render_decisions_csv(const Table& t);

}  // namespace a64fxcc::report
