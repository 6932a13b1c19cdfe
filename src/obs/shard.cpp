#include "obs/shard.hpp"

#include <cinttypes>
#include <cstdlib>

#include "exec/jsonio.hpp"

namespace a64fxcc::obs {

namespace {

using exec::jsonio::field_num;
using exec::jsonio::field_str;
using exec::jsonio::get_num;
using exec::jsonio::get_str;

void field_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "\"%s\":%llu", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

std::optional<std::uint64_t> get_u64(const std::string& line,
                                     const char* key) {
  const auto v = get_num(line, key);
  if (!v || *v < 0) return std::nullopt;
  return static_cast<std::uint64_t>(*v);
}

/// A cell line's key for one runtime::RunMetrics member: a cache count
/// (required on decode) or a phase time (absent decodes as 0).
struct MetricsField {
  const char* key;
  int runtime::RunMetrics::*count;
  double runtime::RunMetrics::*seconds;
};

/// Every RunMetrics member but the backoffs, in line order: the one
/// table encode_cell writes and decode_cell reads.
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
  char buf[32];
  field_num(out, "v", kTelemetryFormatVersion);
  out += ",";
  field_str(out, "kind", "cell");
  out += ",";
  std::snprintf(buf, sizeof buf, "%016" PRIx64, c.key);
  field_str(out, "key", buf);
  out += ",";
  field_str(out, "benchmark", c.benchmark);
  out += ",";
  field_str(out, "compiler", c.compiler);
  out += ",";
  field_str(out, "status", runtime::to_string(c.status));
  out += ",";
  field_num(out, "gen", c.gen);
  out += ",";
  field_num(out, "attempt", c.attempt);
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
  const std::vector<double>& backoffs = c.metrics.backoffs;
  if (!backoffs.empty()) {
    out += ",\"backoffs\":[";
    for (std::size_t i = 0; i < backoffs.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",",
                    backoffs[i]);
      out += buf;
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::optional<CellTelemetry> decode_cell(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}')
    return std::nullopt;
  if (const auto v = get_num(line, "v"); !v || *v > kTelemetryFormatVersion)
    return std::nullopt;
  if (get_str(line, "kind").value_or("") != "cell") return std::nullopt;
  const auto key_hex = get_str(line, "key");
  const auto benchmark = get_str(line, "benchmark");
  const auto compiler = get_str(line, "compiler");
  const auto status = get_str(line, "status");
  if (!key_hex || !benchmark || !compiler || !status) return std::nullopt;
  CellTelemetry c;
  char* end = nullptr;
  c.key = std::strtoull(key_hex->c_str(), &end, 16);
  if (end == key_hex->c_str() || *end != '\0') return std::nullopt;
  if (!runtime::parse_status(*status, &c.status)) return std::nullopt;
  c.benchmark = *benchmark;
  c.compiler = *compiler;
  const auto gen = get_num(line, "gen");
  const auto attempt = get_num(line, "attempt");
  const auto pid = get_num(line, "pid");
  const auto wall = get_num(line, "wall_seconds");
  if (!gen || !attempt || !pid || !wall) return std::nullopt;
  c.gen = static_cast<int>(*gen);
  c.attempt = static_cast<int>(*attempt);
  c.pid = static_cast<int>(*pid);
  c.wall_seconds = *wall;
  // Fields of deleted layers (the search_* and sweep_* counters and the
  // tier's evictions count of older shards) are ignored.
  for (const MetricsField& f : kMetricsFields) {
    if (f.count != nullptr) {
      const auto v = get_u64(line, f.key);
      if (!v) return std::nullopt;
      c.metrics.*f.count = static_cast<int>(*v);
    } else {
      c.metrics.*f.seconds = get_num(line, f.key).value_or(0);
    }
  }
  // The trailing number array gets a torn-tail-safe parse.
  const auto parse_array = [&line](const char* key,
                                   std::vector<double>* out) -> bool {
    const std::string needle = std::string("\"") + key + "\":[";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) return true;  // absent = empty
    const char* p = line.c_str() + at + needle.size();
    while (*p != '\0' && *p != ']') {
      char* num_end = nullptr;
      const double b = std::strtod(p, &num_end);
      if (num_end == p) return false;  // torn array
      out->push_back(b);
      p = num_end;
      if (*p == ',') ++p;
    }
    return *p == ']';  // false = torn line
  };
  if (!parse_array("backoffs", &c.metrics.backoffs)) return std::nullopt;
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

std::optional<SpanShardRecord> decode_span(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}')
    return std::nullopt;
  if (const auto v = get_num(line, "v"); !v || *v > kTelemetryFormatVersion)
    return std::nullopt;
  if (get_str(line, "kind").value_or("") != "span") return std::nullopt;
  const auto pid = get_num(line, "pid");
  const auto tid = get_num(line, "tid");
  const auto name = get_str(line, "name");
  const auto bseq = get_u64(line, "bseq");
  const auto eseq = get_u64(line, "eseq");
  const auto bus = get_num(line, "bus");
  const auto eus = get_num(line, "eus");
  if (!pid || !tid || !name || !bseq || !eseq || !bus || !eus)
    return std::nullopt;
  SpanShardRecord s;
  s.pid = static_cast<int>(*pid);
  s.record.tid = static_cast<int>(*tid);
  s.record.name = *name;
  s.record.benchmark = get_str(line, "benchmark").value_or("");
  s.record.compiler = get_str(line, "compiler").value_or("");
  s.record.begin_seq = *bseq;
  s.record.end_seq = *eseq;
  s.record.begin_us = *bus;
  s.record.end_us = *eus;
  return s;
}

bool ShardWriter::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) std::fclose(out_);
  out_ = nullptr;
  // Newline-terminate a torn tail (crashed writer) before appending,
  // same as Journal::open: without it the first fresh line would glue
  // onto the torn prefix and both would be lost to decode.
  if (std::FILE* probe = std::fopen(path.c_str(), "rb"); probe != nullptr) {
    bool torn = false;
    if (std::fseek(probe, -1, SEEK_END) == 0) {
      const int last = std::fgetc(probe);
      torn = last != EOF && last != '\n';
    }
    std::fclose(probe);
    if (torn) {
      if (std::FILE* fix = std::fopen(path.c_str(), "a"); fix != nullptr) {
        std::fputc('\n', fix);
        std::fclose(fix);
      }
    }
  }
  out_ = std::fopen(path.c_str(), "a");
  return out_ != nullptr;
}

void ShardWriter::append(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (out_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fputc('\n', out_);
  std::fflush(out_);  // one complete line per record, crash-safe
}

void ShardWriter::close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) std::fclose(out_);
  out_ = nullptr;
}

}  // namespace a64fxcc::obs
