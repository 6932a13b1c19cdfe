#include "distrib/status.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "distrib/work_queue.hpp"

namespace a64fxcc::distrib {

std::optional<StudyStatus> read_status(const std::string& dir,
                                       std::vector<std::uint64_t> keys) {
  const std::string path = dir + "/leases.jsonl";
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return std::nullopt;
  LeaseQueue queue(path, std::move(keys));
  if (!queue.open()) return std::nullopt;
  StudyStatus st;
  st.cells_total = queue.size();
  st.cells_done = queue.done_count();
  st.max_generation = queue.max_generation();
  const double now = LeaseQueue::now();
  for (const LeaseInfo& l : queue.active_leases()) {
    if (l.deadline <= now) {
      ++st.cells_expired;
      continue;
    }
    ++st.cells_leased;
    st.owners.push_back(l.owner);
  }
  std::sort(st.owners.begin(), st.owners.end());
  st.owners.erase(std::unique(st.owners.begin(), st.owners.end()),
                  st.owners.end());
  st.phase = st.cells_done == st.cells_total ? "done"
             : st.cells_leased > 0           ? "running"
                                             : "stopped";
  return st;
}

std::string render_status(const StudyStatus& st) {
  std::string out;
  char buf[160];
  const double pct =
      st.cells_total > 0
          ? 100.0 * static_cast<double>(st.cells_done) /
                static_cast<double>(st.cells_total)
          : 0.0;
  std::snprintf(buf, sizeof buf, "study %s — %zu/%zu cells done (%.1f%%)\n",
                st.phase.c_str(), st.cells_done, st.cells_total, pct);
  out += buf;
  std::snprintf(buf, sizeof buf, "  leases  %zu live", st.cells_leased);
  out += buf;
  for (std::size_t i = 0; i < st.owners.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%d", i == 0 ? " (pids " : " ",
                  st.owners[i]);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "%s, %zu expired, max generation %d\n",
                st.owners.empty() ? "" : ")", st.cells_expired,
                st.max_generation);
  out += buf;
  return out;
}

}  // namespace a64fxcc::distrib
