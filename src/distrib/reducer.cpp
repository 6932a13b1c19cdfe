#include "distrib/reducer.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "core/journal.hpp"

namespace a64fxcc::distrib {

std::vector<std::uint64_t> cell_keys(
    const std::vector<kernels::Benchmark>& suite,
    const core::StudyOptions& opt) {
  std::vector<std::uint64_t> keys;
  keys.reserve(suite.size() * opt.compilers.size());
  for (const auto& bench : suite)
    for (const auto& spec : opt.compilers)
      keys.push_back(core::Journal::cell_key(opt.seed, spec,
                                             bench.fingerprint(),
                                             opt.apply_quirks));
  return keys;
}

std::vector<std::string> Reducer::shard_files(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) == 0 && name.size() > 6 &&
        name.find(".jsonl") == name.size() - 6) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

report::Table Reducer::assemble(const LeaseQueue& queue,
                                const std::vector<kernels::Benchmark>& suite,
                                const core::StudyOptions& opt,
                                ReduceStats* stats) {
  std::vector<std::string> names;
  names.reserve(opt.compilers.size());
  for (const auto& spec : opt.compilers) names.push_back(spec.name);
  report::Table t = report::make_table(std::move(names), suite, opt.machine);

  const std::vector<std::uint64_t> keys = cell_keys(suite, opt);
  const std::size_t cols = opt.compilers.size();
  for (std::size_t r = 0; r < suite.size(); ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      runtime::MeasuredRun& cell = t.rows[r].cells[c];
      if (auto e = core::Journal::decode(queue.outcome(keys[r * cols + c]))) {
        cell = std::move(e->run);
        if (stats != nullptr) stats->entries += 1;
      } else {
        cell.benchmark = suite[r].name();
        cell.compiler = opt.compilers[c].name;
        cell.status = runtime::CellStatus::Crashed;
        cell.diagnostic = "no outcome in the lease log";
        if (stats != nullptr) stats->missing += 1;
      }
    }
  }
  return t;
}

report::Table Reducer::merge(const std::string& dir,
                             const std::vector<kernels::Benchmark>& suite,
                             const core::StudyOptions& opt,
                             ReduceStats* stats) {
  LeaseQueue queue(dir + "/leases.jsonl", cell_keys(suite, opt));
  (void)queue.open();  // unopened, it holds no outcome
  return assemble(queue, suite, opt, stats);
}

}  // namespace a64fxcc::distrib
