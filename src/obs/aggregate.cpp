#include "obs/aggregate.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "exec/jsonio.hpp"
#include "exec/line_log.hpp"

namespace a64fxcc::obs {

namespace {

using exec::jsonio::append_escaped;

/// "trace-shard-0003.jsonl" -> "worker-0003".
std::string worker_label(const std::string& filename, const char* prefix) {
  const std::size_t plen = std::char_traits<char>::length(prefix);
  std::string tag = filename.substr(plen);
  if (const auto dot = tag.find('.'); dot != std::string::npos)
    tag.resize(dot);
  return "worker-" + tag;
}

bool has_prefix(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}

bool has_suffix(const std::string& s, const char* p) {
  const std::size_t n = std::char_traits<char>::length(p);
  return s.size() >= n && s.compare(s.size() - n, n, p) == 0;
}

}  // namespace

ProcessSpans& Aggregator::proc_for(int pid, const std::string& name) {
  for (auto& p : procs_)
    if (p.pid == pid) return p;
  procs_.push_back({pid, name, {}});
  return procs_.back();
}

bool Aggregator::load_dir(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> trace_files;
  std::vector<std::string> metrics_files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!has_suffix(name, ".jsonl")) continue;
    if (has_prefix(name, "trace-shard-")) trace_files.push_back(name);
    if (has_prefix(name, "metrics-shard-")) metrics_files.push_back(name);
  }
  if (ec) return false;
  // Sorted filename order = the dedupe order (last record wins), same
  // as the Reducer over result shards.
  std::sort(trace_files.begin(), trace_files.end());
  std::sort(metrics_files.begin(), metrics_files.end());
  for (const auto& name : trace_files) {
    const std::string label = worker_label(name, "trace-shard-");
    if (exec::LineLog::read_all(dir + "/" + name, [&](std::string_view line) {
          if (line.empty()) return;
          if (auto s = decode_span(line)) {
            proc_for(s->pid, label).records.push_back(std::move(s->record));
            ++stats_.spans;
          } else {
            ++stats_.skipped_lines;
          }
        }))
      ++stats_.trace_shards;
  }
  for (const auto& name : metrics_files) {
    if (exec::LineLog::read_all(dir + "/" + name, [&](std::string_view line) {
          if (line.empty()) return;
          if (auto c = decode_cell(line)) {
            fold_cell(std::move(*c));
          } else {
            ++stats_.skipped_lines;
          }
        }))
      ++stats_.metrics_shards;
  }
  return true;
}

void Aggregator::add_process(int pid, const std::string& name,
                             std::vector<Tracer::Record> records) {
  auto& p = proc_for(pid, name);
  p.name = name;  // an explicit add names the row, even for a known pid
  stats_.spans += records.size();
  for (auto& r : records) p.records.push_back(std::move(r));
}

void Aggregator::add_registry(Registry reg) {
  extra_.push_back(std::move(reg));
}

void Aggregator::fold_cell(CellTelemetry c) {
  const std::uint64_t key = c.key;
  const auto it = cells_.find(key);
  if (it != cells_.end()) {
    ++stats_.duplicate_cells;  // re-leased cell: the later record wins
    it->second = std::move(c);
  } else {
    cells_.emplace(key, std::move(c));
  }
  stats_.cells = cells_.size();
}

std::vector<CellTelemetry> Aggregator::cells() const {
  std::vector<CellTelemetry> out;
  out.reserve(cells_.size());
  for (const auto& [key, c] : cells_) out.push_back(c);
  return out;
}

Registry Aggregator::merged_registry() const {
  Registry out;
  for (const auto& [key, c] : cells_)
    out.add_cell(c.status, c.wall_seconds, c.metrics);
  for (const auto& reg : extra_) out.merge(reg);
  return out;
}

std::string Aggregator::merged_trace_json() const {
  // Row order: supervisor first, then workers by name.  Chrome sorts
  // rows by process_sort_index, so emit one per process.
  std::vector<const ProcessSpans*> order;
  order.reserve(procs_.size());
  for (const auto& p : procs_) order.push_back(&p);
  std::stable_sort(order.begin(), order.end(),
                   [](const ProcessSpans* a, const ProcessSpans* b) {
                     const bool sa = a->name == "supervisor";
                     const bool sb = b->name == "supervisor";
                     if (sa != sb) return sa;
                     return a->name < b->name;
                   });

  std::string out = "{\"traceEvents\":[";
  char buf[128];
  bool first = true;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"name\":\"",
                  order[i]->pid);
    out += buf;
    append_escaped(out, order[i]->name);
    std::snprintf(buf, sizeof buf,
                  " (pid %d)\"}},{\"name\":\"process_sort_index\",\"ph\":"
                  "\"M\",\"pid\":%d,\"args\":{\"sort_index\":%zu}}",
                  order[i]->pid, order[i]->pid, i);
    out += buf;
  }

  // Split each record into B/E halves; within one (pid, tid) row the
  // begin/end sequence numbers give chronological order with
  // RAII-correct nesting (see obs/trace.hpp).
  struct Ev {
    const Tracer::Record* r;
    int pid;
    bool begin;
    std::uint64_t seq;
    double us;
  };
  std::vector<Ev> evs;
  for (const auto* p : order) {
    for (const auto& r : p->records) {
      evs.push_back({&r, p->pid, true, r.begin_seq, r.begin_us});
      evs.push_back({&r, p->pid, false, r.end_seq, r.end_us});
    }
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.r->tid != b.r->tid) return a.r->tid < b.r->tid;
    return a.seq < b.seq;
  });
  for (const auto& e : evs) {
    out += ",{\"name\":\"";
    append_escaped(out, e.r->name);
    out += "\",\"cat\":\"cell\",\"ph\":\"";
    out += e.begin ? 'B' : 'E';
    std::snprintf(buf, sizeof buf, "\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d",
                  e.us, e.pid, e.r->tid);
    out += buf;
    if (e.begin && (!e.r->benchmark.empty() || !e.r->compiler.empty())) {
      out += ",\"args\":{\"benchmark\":\"";
      append_escaped(out, e.r->benchmark);
      out += "\",\"compiler\":\"";
      append_escaped(out, e.r->compiler);
      out += "\"}";
    }
    out += "}";
  }

  // Fleet-wide phase summary, merged across every process.
  struct Acc {
    std::uint64_t count = 0;
    double total = 0;
    double max = 0;
  };
  std::map<std::string, Acc> phases;
  for (const auto& p : procs_) {
    for (const auto& r : p.records) {
      Acc& a = phases[r.name];
      a.count += 1;
      a.total += r.seconds();
      a.max = std::max(a.max, r.seconds());
    }
  }
  out += "],\"displayTimeUnit\":\"ms\",\"phaseSummary\":[";
  first = true;
  for (const auto& [name, a] : phases) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, name);
    std::snprintf(buf, sizeof buf,
                  "\",\"count\":%llu,\"total_seconds\":%.9f,"
                  "\"max_seconds\":%.9f}",
                  static_cast<unsigned long long>(a.count), a.total, a.max);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace a64fxcc::obs
