#pragma once
// Per-operation correctness gate of the end-to-end benchmark.
//
// The gate never looks at a noise value, so a deliberate change of the
// noise generator (a re-baseline of every measured time) does not trip
// it.  It checks what is a pure function of the study configuration:
//
//   * every cell's status and pass-decision provenance equal the
//     committed expectation (expected_cells.tsv, row-major);
//   * every valid cell has finite positive seconds and a placement that
//     fits the machine's cores.
//
// Byte-identity across execution paths (warm tier vs cold study,
// multi-process merge vs in-process study) is checked by the workloads
// themselves, once per run.

#include <string>
#include <vector>

#include "kernels/benchmark.hpp"
#include "report/figure2.hpp"

namespace e2e {

struct CellExpectation {
  std::string benchmark;
  std::string compiler;
  std::string status;     ///< runtime::to_string(CellStatus) label
  std::string decisions;  ///< compilers::decision_summary provenance
};

struct Expectation {
  std::vector<CellExpectation> cells;  ///< row-major, like report::Table
};

/// Parse expected_cells.tsv.  On failure returns false and sets `err`.
bool load_expectation(const std::string& path, Expectation& out,
                      std::string& err);

/// The expectation file text for `t` (the deliberate re-baseline path).
[[nodiscard]] std::string expectation_text(const a64fxcc::report::Table& t);

/// Empty when `t` passes the gate, else a description of the first
/// violation.
[[nodiscard]] std::string check_table(const a64fxcc::report::Table& t,
                                      const Expectation& e, int max_cores);

/// Self-test of check_table on real study output: it must accept the
/// reference table and a table of another seed (noise-only difference),
/// and reject one flipped status and one altered decisions string.
/// Returns one line per failed case (empty = pass).
[[nodiscard]] std::vector<std::string> self_test(
    const Expectation& e, const std::vector<a64fxcc::kernels::Benchmark>& suite,
    std::uint64_t seed, int max_cores);

}  // namespace e2e
