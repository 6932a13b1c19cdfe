#include "distrib/reducer.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>

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

std::size_t Reducer::load_shards(const std::string& dir, core::Journal& j,
                                 ReduceStats* stats) {
  std::vector<LoadedShard> loaded;
  const std::size_t before = j.size();
  (void)load_new_shards(dir, j, loaded, stats);  // nothing listed: loads all
  return j.size() - before;
}

bool Reducer::load_new_shards(const std::string& dir, core::Journal& j,
                              std::vector<LoadedShard>& loaded,
                              ReduceStats* stats) {
  const auto size_of = [](const std::string& path) {
    std::error_code ec;  // a vanished file reads as size -1
    return std::filesystem::file_size(path, ec);
  };
  const std::vector<std::string> files = shard_files(dir);
  // New files sort after every listed one (a pass numbers its shards
  // after the directory's highest index), so the listed files must
  // still lead the directory, each exactly as it was loaded.
  if (files.size() < loaded.size()) return false;
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    if (files[i] != loaded[i].path || size_of(files[i]) != loaded[i].bytes)
      return false;
  }
  for (std::size_t i = loaded.size(); i < files.size(); ++i) {
    loaded.push_back({files[i], size_of(files[i])});
    std::size_t deduped = 0;
    const std::size_t added = j.load(files[i], &deduped);
    if (stats != nullptr) {
      stats->shards += 1;
      stats->entries += added;
      stats->duplicates += deduped;
    }
  }
  return true;
}

report::Table Reducer::assemble(core::Journal& j,
                                const std::vector<kernels::Benchmark>& suite,
                                const core::StudyOptions& opt,
                                ReduceStats* stats) {
  std::vector<std::string> names;
  names.reserve(opt.compilers.size());
  for (const auto& spec : opt.compilers) names.push_back(spec.name);
  report::Table t = report::make_table(std::move(names), suite);

  const std::vector<std::uint64_t> keys = cell_keys(suite, opt);
  const std::size_t cols = opt.compilers.size();
  for (std::size_t r = 0; r < suite.size(); ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      runtime::MeasuredRun& cell = t.rows[r].cells[c];
      if (auto run = j.take(keys[r * cols + c])) {
        cell = std::move(*run);
      } else {
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

report::Table Reducer::merge(const std::string& dir,
                             const std::vector<kernels::Benchmark>& suite,
                             const core::StudyOptions& opt,
                             ReduceStats* stats) {
  core::Journal j;
  load_shards(dir, j, stats);
  return assemble(j, suite, opt, stats);
}

}  // namespace a64fxcc::distrib
