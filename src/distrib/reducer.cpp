#include "distrib/reducer.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>

namespace a64fxcc::distrib {

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

std::size_t Reducer::load_shards(const std::string& dir, core::Journal& j,
                                 ReduceStats* stats) {
  std::size_t total = 0;
  for (const auto& path : shard_files(dir)) {
    std::size_t deduped = 0;
    total += j.load(path, &deduped);
    if (stats != nullptr) {
      stats->shards += 1;
      stats->duplicates += deduped;
    }
  }
  if (stats != nullptr) stats->entries += total;
  return total;
}

report::Table Reducer::merge(const std::string& dir,
                             const std::vector<kernels::Benchmark>& suite,
                             const core::StudyOptions& opt,
                             ReduceStats* stats) {
  core::Journal j;
  load_shards(dir, j, stats);

  std::vector<std::string> names;
  names.reserve(opt.compilers.size());
  for (const auto& spec : opt.compilers) names.push_back(spec.name);
  report::Table t = report::make_table(std::move(names), suite);

  for (std::size_t r = 0; r < suite.size(); ++r) {
    for (std::size_t c = 0; c < opt.compilers.size(); ++c) {
      const std::uint64_t key = core::Journal::cell_key(
          opt.seed, opt.compilers[c], suite[r].fingerprint(), opt.apply_quirks);
      if (const runtime::MeasuredRun* run = j.find(key)) {
        t.rows[r].cells[c] = *run;
      } else {
        runtime::MeasuredRun& cell = t.rows[r].cells[c];
        cell.benchmark = suite[r].name();
        cell.compiler = opt.compilers[c].name;
        cell.status = runtime::CellStatus::Crashed;
        cell.diagnostic = "cell missing from shard journals";
        if (stats != nullptr) stats->missing += 1;
      }
    }
  }
  return t;
}

}  // namespace a64fxcc::distrib
