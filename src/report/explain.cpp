#include "report/explain.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace a64fxcc::report {

namespace {

/// Canonical pass order first (the five the paper's compilers differ
/// on), then any extras in first-appearance order across all entries.
std::vector<std::string> pass_order(const std::vector<ExplainEntry>& entries) {
  std::vector<std::string> order = {"interchange", "tile", "vectorize",
                                    "fuse", "polly"};
  for (const auto& e : entries)
    for (const auto& d : e.decisions)
      if (std::find(order.begin(), order.end(), d.pass) == order.end())
        order.push_back(d.pass);
  // Drop canonical passes no entry mentions (quirk-failed-everywhere).
  std::erase_if(order, [&](const std::string& p) {
    for (const auto& e : entries)
      if (compilers::find_decision(e.decisions, p) != nullptr) return false;
    return true;
  });
  return order;
}

}  // namespace

std::vector<ExplainEntry> explain_benchmark(
    const ir::Kernel& kernel,
    const std::vector<compilers::CompilerSpec>& specs) {
  std::vector<ExplainEntry> out;
  out.reserve(specs.size());
  for (const auto& spec : specs) {
    const auto o = compilers::compile(spec, kernel);
    out.push_back({spec.name, o.status, o.diagnostic, o.decisions});
  }
  return out;
}

std::string render_explain(const std::string& benchmark,
                           const std::vector<ExplainEntry>& entries) {
  std::ostringstream os;
  os << "pass decisions for " << benchmark << "\n\n";
  char buf[64];
  for (const auto& e : entries) {
    std::snprintf(buf, sizeof buf, "  %-12s ", e.compiler.c_str());
    os << buf;
    if (e.status != compilers::CompileOutcome::Status::Ok) {
      os << (e.status == compilers::CompileOutcome::Status::CompileError
                 ? "CE "
                 : "RE ")
         << e.diagnostic << "\n";
      continue;
    }
    os << compilers::decision_summary(e.decisions) << "\n";
  }
  for (const auto& pass : pass_order(entries)) {
    os << "\n" << pass << ":\n";
    for (const auto& e : entries) {
      std::snprintf(buf, sizeof buf, "  %-12s ", e.compiler.c_str());
      os << buf;
      if (const auto* d = compilers::find_decision(e.decisions, pass)) {
        os << (d->fired ? "fired   " : "blocked ") << d->detail;
        // Analysis-manager traffic of the pass, when it consulted any
        // analyses at all (deterministic: counters are maintained
        // identically with memoization off).
        if (d->analysis_hits + d->analysis_misses > 0) {
          std::snprintf(buf, sizeof buf, "  [analysis: %dh/%dm]",
                        d->analysis_hits, d->analysis_misses);
          os << buf;
        }
        os << "\n";
      } else if (e.status != compilers::CompileOutcome::Status::Ok) {
        os << "n/a     compile pre-empted by quirk: " << e.diagnostic << "\n";
      } else {
        os << "n/a     pass never consulted\n";
      }
    }
  }
  return os.str();
}

std::string render_decisions_csv(const Table& t) {
  std::ostringstream os;
  os << "benchmark,compiler,decisions\n";
  for (const auto& row : t.rows)
    for (const auto& cell : row.cells)
      os << row.benchmark << "," << cell.compiler << ",\"" << cell.decisions
         << "\"\n";
  return os.str();
}

}  // namespace a64fxcc::report
