#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "exec/jsonio.hpp"

namespace a64fxcc::obs {

namespace {

using exec::jsonio::get_num;
using exec::jsonio::get_str;

/// Scan `"marker":{ "name":<value>, ... }` and call fn(name, value_at)
/// with the cursor on the first character of each value.  Returns the
/// consumed values via fn; tolerant of a missing marker (no calls).
template <typename Fn>
void scan_flat_object(const std::string& doc, const char* marker, Fn fn) {
  std::size_t i = doc.find(marker);
  if (i == std::string::npos) return;
  i += std::char_traits<char>::length(marker);
  while (i < doc.size()) {
    while (i < doc.size() && (doc[i] == ',' || doc[i] == ' ' ||
                              doc[i] == '\n'))
      ++i;
    if (i >= doc.size() || doc[i] == '}') return;
    if (doc[i] != '"') return;  // malformed: stop, keep what we have
    std::string name;
    ++i;
    while (i < doc.size() && doc[i] != '"') {
      if (doc[i] == '\\' && i + 1 < doc.size()) ++i;
      name.push_back(doc[i]);
      ++i;
    }
    if (i >= doc.size()) return;
    ++i;  // closing quote
    if (i >= doc.size() || doc[i] != ':') return;
    ++i;
    i = fn(name, i);  // fn consumes the value, returns the next cursor
  }
}

/// Cursor past a balanced {...} starting at `at` (doc[at] == '{').
std::size_t skip_object(const std::string& doc, std::size_t at) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = at; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{') ++depth;
    else if (c == '}' && --depth == 0) return i + 1;
  }
  return doc.size();
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void parse_metrics(const std::string& doc, ReportDoc& out) {
  scan_flat_object(doc, "\"counters\":{",
                   [&](const std::string& name, std::size_t at) {
                     char* end = nullptr;
                     const double v = std::strtod(doc.c_str() + at, &end);
                     if (end != doc.c_str() + at && v >= 0)
                       out.counters[name] =
                           static_cast<std::uint64_t>(v + 0.5);
                     return static_cast<std::size_t>(end - doc.c_str());
                   });
  scan_flat_object(doc, "\"gauges\":{",
                   [&](const std::string& name, std::size_t at) {
                     char* end = nullptr;
                     const double v = std::strtod(doc.c_str() + at, &end);
                     if (end != doc.c_str() + at) out.gauges[name] = v;
                     return static_cast<std::size_t>(end - doc.c_str());
                   });
  scan_flat_object(doc, "\"histograms\":{",
                   [&](const std::string& name, std::size_t at) {
                     if (at >= doc.size() || doc[at] != '{') return doc.size();
                     const std::size_t end = skip_object(doc, at);
                     const std::string h = doc.substr(at, end - at);
                     HistTotal t;
                     // The header fields precede "buckets", so the first
                     // occurrence of each key is the header's.
                     t.count = static_cast<std::uint64_t>(
                         get_num(h, "count").value_or(0));
                     t.sum = get_num(h, "sum").value_or(0);
                     t.min = get_num(h, "min").value_or(0);
                     t.max = get_num(h, "max").value_or(0);
                     out.histograms[name] = t;
                     return end;
                   });
}

void parse_trace(const std::string& doc, ReportDoc& out) {
  std::size_t i = doc.find("\"phaseSummary\":[");
  if (i == std::string::npos) return;
  i += sizeof("\"phaseSummary\":[") - 1;
  while (i < doc.size() && doc[i] != ']') {
    if (doc[i] != '{') {
      ++i;
      continue;
    }
    const std::size_t end = skip_object(doc, i);
    const std::string entry = doc.substr(i, end - i);
    PhaseTotal p;
    p.name = get_str(entry, "name").value_or("");
    p.count =
        static_cast<std::uint64_t>(get_num(entry, "count").value_or(0));
    p.total_seconds = get_num(entry, "total_seconds").value_or(0);
    p.max_seconds = get_num(entry, "max_seconds").value_or(0);
    if (!p.name.empty()) out.phases.push_back(std::move(p));
    i = end;
  }
}

const PhaseTotal* find_phase(const ReportDoc& d, const std::string& name) {
  for (const auto& p : d.phases)
    if (p.name == name) return &p;
  return nullptr;
}

}  // namespace

std::optional<ReportDoc> load_report_doc(const std::string& path,
                                         std::string* err) {
  const auto doc = read_file(path);
  if (!doc) {
    if (err != nullptr) *err = "cannot read '" + path + "'";
    return std::nullopt;
  }
  ReportDoc out;
  out.path = path;
  if (doc->find("\"traceEvents\"") != std::string::npos) {
    out.kind = ReportDoc::Kind::Trace;
    parse_trace(*doc, out);
    return out;
  }
  if (doc->find("\"counters\":{") != std::string::npos) {
    out.kind = ReportDoc::Kind::Metrics;
    parse_metrics(*doc, out);
    return out;
  }
  if (err != nullptr)
    *err = "'" + path +
           "' is neither a metrics registry nor a trace document";
  return std::nullopt;
}

std::string summarize_report(const ReportDoc& doc) {
  std::string out;
  char buf[192];
  if (doc.kind == ReportDoc::Kind::Trace) {
    std::snprintf(buf, sizeof buf, "trace %s — %zu phase(s)\n",
                  doc.path.c_str(), doc.phases.size());
    out += buf;
    std::snprintf(buf, sizeof buf, "  %-24s %10s %14s %14s\n", "phase",
                  "count", "total_s", "max_s");
    out += buf;
    for (const auto& p : doc.phases) {
      std::snprintf(buf, sizeof buf, "  %-24s %10llu %14.6f %14.6f\n",
                    p.name.c_str(), static_cast<unsigned long long>(p.count),
                    p.total_seconds, p.max_seconds);
      out += buf;
    }
    return out;
  }
  std::snprintf(buf, sizeof buf,
                "metrics %s — %zu counter(s), %zu gauge(s), %zu "
                "histogram(s)\n",
                doc.path.c_str(), doc.counters.size(), doc.gauges.size(),
                doc.histograms.size());
  out += buf;
  for (const auto& [name, v] : doc.counters) {
    std::snprintf(buf, sizeof buf, "  %-36s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  for (const auto& [name, v] : doc.gauges) {
    std::snprintf(buf, sizeof buf, "  %-36s %12.3f\n", name.c_str(), v);
    out += buf;
  }
  for (const auto& [name, h] : doc.histograms) {
    std::snprintf(buf, sizeof buf,
                  "  %-36s n=%-8llu sum=%.6fs mean=%.6fs max=%.6fs\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.sum, h.count > 0 ? h.sum / static_cast<double>(h.count)
                                     : 0.0,
                  h.max);
    out += buf;
  }
  return out;
}

std::string diff_reports(const ReportDoc& base, const ReportDoc& cur) {
  std::string d;
  char buf[224];
  // New metrics (base == 0) print a 0% change.
  const auto time_delta = [&](const char* label, double b, double c) {
    std::snprintf(buf, sizeof buf, "  %-36s %14.6fs -> %14.6fs (%+.1f%%)\n",
                  label, b, c, b > 0 ? (c / b - 1.0) * 100.0 : 0.0);
    d += buf;
  };
  if (base.kind == ReportDoc::Kind::Trace) {
    d += "phase totals (" + base.path + " -> " + cur.path + "):\n";
    std::set<std::string> names;
    for (const auto& p : base.phases) names.insert(p.name);
    for (const auto& p : cur.phases) names.insert(p.name);
    for (const auto& name : names) {
      const PhaseTotal* b = find_phase(base, name);
      const PhaseTotal* c = find_phase(cur, name);
      time_delta(name.c_str(), b != nullptr ? b->total_seconds : 0,
                 c != nullptr ? c->total_seconds : 0);
    }
    return d;
  }
  d += "counter deltas (" + base.path + " -> " + cur.path + "):\n";
  std::set<std::string> names;
  for (const auto& [name, v] : base.counters) names.insert(name);
  for (const auto& [name, v] : cur.counters) names.insert(name);
  for (const auto& name : names) {
    const auto bit = base.counters.find(name);
    const auto cit = cur.counters.find(name);
    const std::uint64_t b = bit == base.counters.end() ? 0 : bit->second;
    const std::uint64_t c = cit == cur.counters.end() ? 0 : cit->second;
    if (b == c) continue;
    std::snprintf(buf, sizeof buf, "  %-36s %12llu -> %12llu (%+lld)\n",
                  name.c_str(), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(c),
                  static_cast<long long>(c) - static_cast<long long>(b));
    d += buf;
  }
  std::set<std::string> gnames;
  for (const auto& [name, v] : base.gauges) gnames.insert(name);
  for (const auto& [name, v] : cur.gauges) gnames.insert(name);
  for (const auto& name : gnames) {
    const auto bit = base.gauges.find(name);
    const auto cit = cur.gauges.find(name);
    const double b = bit == base.gauges.end() ? 0 : bit->second;
    const double c = cit == cur.gauges.end() ? 0 : cit->second;
    if (std::abs(b - c) < 1e-12) continue;
    std::snprintf(buf, sizeof buf, "  %-36s %12.3f -> %12.3f\n",
                  name.c_str(), b, c);
    d += buf;
  }
  d += "phase-time deltas (histogram sums):\n";
  std::set<std::string> hnames;
  for (const auto& [name, h] : base.histograms) hnames.insert(name);
  for (const auto& [name, h] : cur.histograms) hnames.insert(name);
  for (const auto& name : hnames) {
    const auto bit = base.histograms.find(name);
    const auto cit = cur.histograms.find(name);
    time_delta(name.c_str(),
               bit == base.histograms.end() ? 0 : bit->second.sum,
               cit == cur.histograms.end() ? 0 : cit->second.sum);
  }
  return d;
}

}  // namespace a64fxcc::obs
