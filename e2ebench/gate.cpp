#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/study.hpp"

namespace e2e {

using namespace a64fxcc;

namespace {

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    out.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return out;
    start = tab + 1;
  }
}

std::string cell_name(const runtime::MeasuredRun& m) {
  return m.benchmark + "/" + m.compiler;
}

report::Table reference_table(const std::vector<kernels::Benchmark>& suite,
                              std::uint64_t seed) {
  core::StudyOptions opt;
  opt.seed = seed;
  opt.jobs = 1;
  return core::Study(opt).run_suite(suite);
}

}  // namespace

bool load_expectation(const std::string& path, Expectation& out,
                      std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot read " + path;
    return false;
  }
  out.cells.clear();
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const auto f = split_tabs(line);
    if (f.size() != 4) {
      err = path + ":" + std::to_string(lineno) + ": expected 4 tab-separated fields";
      return false;
    }
    out.cells.push_back({f[0], f[1], f[2], f[3]});
  }
  if (out.cells.empty()) {
    err = path + ": no cells";
    return false;
  }
  return true;
}

std::string expectation_text(const report::Table& t) {
  std::ostringstream os;
  os << "# benchmark\tcompiler\tstatus\tdecisions\n";
  for (const auto& row : t.rows)
    for (const auto& m : row.cells)
      os << m.benchmark << '\t' << m.compiler << '\t'
         << runtime::to_string(m.status) << '\t' << m.decisions << '\n';
  return os.str();
}

std::string check_table(const report::Table& t, const Expectation& e,
                        int max_cores) {
  std::size_t i = 0;
  for (const auto& row : t.rows) {
    for (const auto& m : row.cells) {
      if (i >= e.cells.size())
        return "table has more cells than the expectation (" +
               std::to_string(e.cells.size()) + ")";
      const CellExpectation& x = e.cells[i++];
      if (m.benchmark != x.benchmark || m.compiler != x.compiler)
        return "cell " + std::to_string(i - 1) + " is " + cell_name(m) +
               ", expected " + x.benchmark + "/" + x.compiler;
      if (runtime::to_string(m.status) != x.status)
        return cell_name(m) + ": status '" + runtime::to_string(m.status) +
               "', expected '" + x.status + "'";
      if (m.decisions != x.decisions)
        return cell_name(m) + ": decisions '" + m.decisions + "', expected '" +
               x.decisions + "'";
      if (!m.valid()) continue;
      if (!std::isfinite(m.best_seconds) || m.best_seconds <= 0 ||
          !std::isfinite(m.median_seconds) || m.median_seconds <= 0)
        return cell_name(m) + ": seconds not finite and positive";
      const auto& p = m.placement;
      if (p.ranks < 1 || p.threads < 1 || p.ranks * p.threads > max_cores)
        return cell_name(m) + ": placement " + std::to_string(p.ranks) + "x" +
               std::to_string(p.threads) + " exceeds " +
               std::to_string(max_cores) + " cores";
    }
  }
  if (i != e.cells.size())
    return "table has " + std::to_string(i) + " cells, expected " +
           std::to_string(e.cells.size());
  return {};
}

std::vector<std::string> self_test(
    const Expectation& e, const std::vector<kernels::Benchmark>& suite,
    std::uint64_t seed, int max_cores) {
  std::vector<std::string> failures;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };

  const report::Table ref = reference_table(suite, seed);
  const std::string ref_error = check_table(ref, e, max_cores);
  expect(ref_error.empty(), "reference table rejected: " + ref_error);

  // One flipped status: the first valid cell turns into a runtime error.
  report::Table flipped = ref;
  for (auto& row : flipped.rows) {
    auto it = std::find_if(row.cells.begin(), row.cells.end(),
                           [](const auto& m) { return m.valid(); });
    if (it == row.cells.end()) continue;
    it->status = runtime::CellStatus::RuntimeError;
    break;
  }
  expect(!check_table(flipped, e, max_cores).empty(),
         "table with one flipped status accepted");

  // One altered decisions string: the first '+' becomes '-'.
  report::Table altered = ref;
  for (auto& row : altered.rows) {
    auto it = std::find_if(row.cells.begin(), row.cells.end(), [](const auto& m) {
      return m.decisions.find('+') != std::string::npos;
    });
    if (it == row.cells.end()) continue;
    it->decisions[it->decisions.find('+')] = '-';
    break;
  }
  expect(!check_table(altered, e, max_cores).empty(),
         "table with one altered decisions string accepted");

  // Another seed changes only noise values: the tables differ, yet the
  // gate accepts both.
  const report::Table other = reference_table(suite, seed + 1);
  expect(report::render_csv(other) != report::render_csv(ref),
         "tables of two seeds are identical; the noise case tests nothing");
  const std::string other_error = check_table(other, e, max_cores);
  expect(other_error.empty(), "table of another seed rejected: " + other_error);
  return failures;
}

}  // namespace e2e
