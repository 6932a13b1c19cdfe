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

namespace jsonio = exec::jsonio;

std::string unescaped(std::string_view s) {
  std::string out;
  jsonio::unescape(s, out);
  return out;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// The registry's three objects: counters and gauges by name, and each
/// histogram's header (the buckets are skipped).
void parse_metrics(std::string_view counters, std::string_view gauges,
                   std::string_view histograms, ReportDoc& out) {
  (void)jsonio::for_each_field(
      counters, [&](std::string_view name, std::string_view raw) {
        if (const auto v = jsonio::u64(raw)) out.counters[unescaped(name)] = *v;
      });
  (void)jsonio::for_each_field(
      gauges, [&](std::string_view name, std::string_view raw) {
        if (const auto v = jsonio::num(raw)) out.gauges[unescaped(name)] = *v;
      });
  (void)jsonio::for_each_field(
      histograms, [&](std::string_view name, std::string_view raw) {
        static constexpr std::string_view kKeys[] = {"count", "sum", "min",
                                                     "max"};
        std::string_view f[std::size(kKeys)];
        if (!jsonio::pick(raw, kKeys, f)) return;
        HistTotal t;
        t.count = jsonio::u64(f[0]).value_or(0);
        t.sum = jsonio::num(f[1]).value_or(0);
        t.min = jsonio::num(f[2]).value_or(0);
        t.max = jsonio::num(f[3]).value_or(0);
        out.histograms[unescaped(name)] = t;
      });
}

/// The trace's phaseSummary array.
void parse_trace(std::string_view phases, ReportDoc& out) {
  (void)jsonio::for_each_element(phases, [&](std::string_view entry) {
    static constexpr std::string_view kKeys[] = {
        "name", "count", "total_seconds", "max_seconds"};
    std::string_view f[std::size(kKeys)];
    PhaseTotal p;
    if (!jsonio::pick(entry, kKeys, f) || !jsonio::str(f[0], p.name) ||
        p.name.empty())
      return;
    p.count = jsonio::u64(f[1]).value_or(0);
    p.total_seconds = jsonio::num(f[2]).value_or(0);
    p.max_seconds = jsonio::num(f[3]).value_or(0);
    out.phases.push_back(std::move(p));
  });
}

const PhaseTotal* find_phase(const ReportDoc& d, const std::string& name) {
  for (const auto& p : d.phases)
    if (p.name == name) return &p;
  return nullptr;
}

}  // namespace

bool write_artifact(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::optional<ReportDoc> load_report_doc(const std::string& path,
                                         std::string* err) {
  const auto doc = read_file(path);
  if (!doc) {
    if (err != nullptr) *err = "cannot read '" + path + "'";
    return std::nullopt;
  }
  static constexpr std::string_view kKeys[] = {
      "traceEvents", "phaseSummary", "counters", "gauges", "histograms"};
  std::string_view f[std::size(kKeys)];
  const auto& [events, phases, counters, gauges, histograms] = f;
  ReportDoc out;
  out.path = path;
  if (jsonio::pick(*doc, kKeys, f)) {
    if (!events.empty()) {
      out.kind = ReportDoc::Kind::Trace;
      parse_trace(phases, out);
      return out;
    }
    if (!counters.empty()) {
      out.kind = ReportDoc::Kind::Metrics;
      parse_metrics(counters, gauges, histograms, out);
      return out;
    }
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
