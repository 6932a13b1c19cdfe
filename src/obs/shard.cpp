#include "obs/shard.hpp"

#include <array>
#include <cstdio>

#include "exec/jsonio.hpp"

namespace a64fxcc::obs {

namespace {

namespace jsonio = exec::jsonio;
using jsonio::field_num;
using jsonio::field_str;

void field_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out += '"';
  out += key;
  out += "\":";
  out.append(buf, res.ptr);
}

/// A cell line's key for one runtime::RunMetrics member: a cache count
/// (required on decode) or a phase time (absent decodes as 0).
struct MetricsField {
  const char* key;
  int runtime::RunMetrics::*count;
  double runtime::RunMetrics::*seconds;
};

/// Every RunMetrics member, in line order: the one table encode_cell
/// writes and decode_cell reads.
constexpr MetricsField kMetricsFields[] = {
    {"compile_hits", &runtime::RunMetrics::compile_cache_hits, nullptr},
    {"compile_misses", &runtime::RunMetrics::compile_cache_misses, nullptr},
    {"plan_hits", &runtime::RunMetrics::plan_cache_hits, nullptr},
    {"plan_misses", &runtime::RunMetrics::plan_cache_misses, nullptr},
    {"estimate_hits", &runtime::RunMetrics::estimate_cache_hits, nullptr},
    {"estimate_misses", &runtime::RunMetrics::estimate_cache_misses, nullptr},
    {"analysis_hits", &runtime::RunMetrics::analysis_cache_hits, nullptr},
    {"analysis_misses", &runtime::RunMetrics::analysis_cache_misses, nullptr},
    {"invalidations", &runtime::RunMetrics::analysis_cache_invalidations,
     nullptr},
    {"compile_seconds", nullptr, &runtime::RunMetrics::compile_seconds},
    {"explore_seconds", nullptr, &runtime::RunMetrics::explore_seconds},
    {"measure_seconds", nullptr, &runtime::RunMetrics::measure_seconds},
};

/// Every key decode_cell reads, in line order: the cell's identity, the
/// metrics table's keys, then the wall time.
enum CellField : std::size_t {
  kV, kKind, kKey, kBenchmark, kCompiler, kStatus, kGen, kPid, kFirstMetric
};
constexpr std::size_t kWall = kFirstMetric + std::size(kMetricsFields);
constexpr auto kCellKeys = [] {
  std::array<std::string_view, kWall + 1> k{
      "v", "kind", "key", "benchmark", "compiler", "status", "gen", "pid"};
  for (std::size_t i = 0; i < std::size(kMetricsFields); ++i)
    k[kFirstMetric + i] = kMetricsFields[i].key;
  k[kWall] = "wall_seconds";
  return k;
}();

}  // namespace

std::string trace_shard_name(int spawn_index) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "trace-shard-%04d.jsonl", spawn_index);
  return buf;
}

std::string metrics_shard_name(int spawn_index) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "metrics-shard-%04d.jsonl", spawn_index);
  return buf;
}

std::string encode_cell(const CellTelemetry& c) {
  std::string out = "{";
  field_num(out, "v", kTelemetryFormatVersion);
  out += ",";
  field_str(out, "kind", "cell");
  out += ",";
  jsonio::field_hex64(out, "key", c.key);
  out += ",";
  field_str(out, "benchmark", c.benchmark);
  out += ",";
  field_str(out, "compiler", c.compiler);
  out += ",";
  field_str(out, "status", runtime::to_string(c.status));
  out += ",";
  field_num(out, "gen", c.gen);
  out += ",";
  // One attempt per generation; older readers require the field.
  field_num(out, "attempt", c.gen);
  out += ",";
  field_num(out, "pid", c.pid);
  for (const MetricsField& f : kMetricsFields) {
    out += ",";
    if (f.count != nullptr)
      field_u64(out, f.key, static_cast<std::uint64_t>(c.metrics.*f.count));
    else
      field_num(out, f.key, c.metrics.*f.seconds);
  }
  out += ",";
  field_num(out, "wall_seconds", c.wall_seconds);
  out += "}";
  return out;
}

std::optional<CellTelemetry> decode_cell(std::string_view line) {
  std::array<std::string_view, kCellKeys.size()> f;
  if (!jsonio::pick(line, kCellKeys, f)) return std::nullopt;
  if (const auto v = jsonio::num(f[kV]); !v || *v > kTelemetryFormatVersion)
    return std::nullopt;
  std::string label;  // kind and status labels fit the small-string buffer
  if (!jsonio::str(f[kKind], label) || label != "cell") return std::nullopt;
  const auto key = jsonio::hex64(f[kKey]);
  CellTelemetry c;
  if (!key || !jsonio::str(f[kBenchmark], c.benchmark) ||
      !jsonio::str(f[kCompiler], c.compiler) ||
      !jsonio::str(f[kStatus], label) ||
      !runtime::parse_status(label, &c.status))
    return std::nullopt;
  c.key = *key;
  const auto gen = jsonio::num(f[kGen]);
  const auto pid = jsonio::num(f[kPid]);
  const auto wall = jsonio::num(f[kWall]);
  if (!gen || !pid || !wall) return std::nullopt;
  c.gen = static_cast<int>(*gen);
  c.pid = static_cast<int>(*pid);
  c.wall_seconds = *wall;
  // Fields of deleted layers (the search_* and sweep_* counters, the
  // tier's evictions count, and the retry loop's "attempt" and
  // "backoffs" of older shards) are ignored.
  for (std::size_t i = 0; i < std::size(kMetricsFields); ++i) {
    const MetricsField& m = kMetricsFields[i];
    const std::string_view raw = f[kFirstMetric + i];
    if (m.count != nullptr) {
      const auto v = jsonio::u64(raw);
      if (!v) return std::nullopt;
      c.metrics.*m.count = static_cast<int>(*v);
    } else {
      c.metrics.*m.seconds = jsonio::num(raw).value_or(0);
    }
  }
  return c;
}

std::string encode_span(const Tracer::Record& r, int pid) {
  std::string out = "{";
  field_num(out, "v", kTelemetryFormatVersion);
  out += ",";
  field_str(out, "kind", "span");
  out += ",";
  field_num(out, "pid", pid);
  out += ",";
  field_num(out, "tid", r.tid);
  out += ",";
  field_str(out, "name", r.name);
  if (!r.benchmark.empty() || !r.compiler.empty()) {
    out += ",";
    field_str(out, "benchmark", r.benchmark);
    out += ",";
    field_str(out, "compiler", r.compiler);
  }
  out += ",";
  field_u64(out, "bseq", r.begin_seq);
  out += ",";
  field_u64(out, "eseq", r.end_seq);
  out += ",";
  field_num(out, "bus", r.begin_us);
  out += ",";
  field_num(out, "eus", r.end_us);
  out += "}";
  return out;
}

std::optional<SpanShardRecord> decode_span(std::string_view line) {
  static constexpr std::string_view kKeys[] = {
      "v", "kind", "pid", "tid", "name", "benchmark",
      "compiler", "bseq", "eseq", "bus", "eus"};
  std::string_view f[std::size(kKeys)];
  if (!jsonio::pick(line, kKeys, f)) return std::nullopt;
  const auto& [v, kind, pid, tid, name, benchmark, compiler, bseq, eseq, bus,
               eus] = f;
  if (const auto ver = jsonio::num(v); !ver || *ver > kTelemetryFormatVersion)
    return std::nullopt;
  std::string label;  // fits the small-string buffer
  if (!jsonio::str(kind, label) || label != "span") return std::nullopt;
  SpanShardRecord s;
  const auto p = jsonio::num(pid);
  const auto t = jsonio::num(tid);
  const auto b = jsonio::u64(bseq);
  const auto e = jsonio::u64(eseq);
  const auto bu = jsonio::num(bus);
  const auto eu = jsonio::num(eus);
  if (!p || !t || !b || !e || !bu || !eu || !jsonio::str(name, s.record.name))
    return std::nullopt;
  s.pid = static_cast<int>(*p);
  s.record.tid = static_cast<int>(*t);
  (void)jsonio::str(benchmark, s.record.benchmark);  // absent: empty
  (void)jsonio::str(compiler, s.record.compiler);
  s.record.begin_seq = *b;
  s.record.end_seq = *e;
  s.record.begin_us = *bu;
  s.record.end_us = *eu;
  return s;
}

}  // namespace a64fxcc::obs
