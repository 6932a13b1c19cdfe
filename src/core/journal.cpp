#include "core/journal.hpp"

#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "cache/fingerprint.hpp"
#include "exec/jsonio.hpp"
#include "ir/fingerprint.hpp"

namespace a64fxcc::core {

namespace {

// The line codec lives in exec/jsonio.hpp, shared with the lease queue
// and the telemetry shards: one escaping convention across every
// durable log.
using exec::jsonio::field_num;
using exec::jsonio::field_str;
using exec::jsonio::get_num;
using exec::jsonio::get_str;

}  // namespace

std::uint64_t Journal::cell_key(std::uint64_t seed,
                                const compilers::CompilerSpec& spec,
                                std::uint64_t kernel_fp, bool apply_quirks) {
  std::uint64_t h = cache::mix64(seed);
  h ^= cache::mix64(compilers::fingerprint(spec) ^ cache::fnv1a(spec.name));
  h ^= cache::mix64(kernel_fp + (apply_quirks ? 1 : 0));
  return h;
}

std::uint64_t Journal::cell_key(std::uint64_t seed,
                                const compilers::CompilerSpec& spec,
                                const ir::Kernel& kernel, bool apply_quirks) {
  return cell_key(seed, spec, ir::content_fingerprint(kernel), apply_quirks);
}

std::string Journal::encode(const JournalEntry& e) {
  std::string out = "{";
  char buf[32];
  field_num(out, "v", kJournalFormatVersion);
  out += ",";
  std::snprintf(buf, sizeof buf, "%016" PRIx64, e.key);
  field_str(out, "key", buf);
  out += ",";
  field_str(out, "benchmark", e.run.benchmark);
  out += ",";
  field_str(out, "compiler", e.run.compiler);
  out += ",";
  field_str(out, "status", runtime::to_string(e.run.status));
  if (e.run.valid()) {
    out += ",";
    field_num(out, "best_seconds", e.run.best_seconds);
    out += ",";
    field_num(out, "median_seconds", e.run.median_seconds);
    out += ",";
    field_num(out, "cv", e.run.cv);
    out += ",";
    field_num(out, "ranks", e.run.placement.ranks);
    out += ",";
    field_num(out, "threads", e.run.placement.threads);
    out += ",";
    field_str(out, "bottleneck", e.run.bottleneck);
    out += ",";
    field_num(out, "gflops", e.run.gflops);
    out += ",";
    field_num(out, "mem_gbs", e.run.mem_gbs);
  } else {
    out += ",";
    field_str(out, "diagnostic", e.run.diagnostic);
  }
  if (!e.run.decisions.empty()) {
    out += ",";
    field_str(out, "decisions", e.run.decisions);
  }
  out += "}";
  return out;
}

std::optional<JournalEntry> Journal::decode(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}')
    return std::nullopt;
  // Version gate: only this build's format resumes.  Untagged v1 and v2
  // lines hold measurements drawn with an older noise generator, and
  // newer lines would be half-parsed; all of them are skipped.
  if (get_num(line, "v") != kJournalFormatVersion) return std::nullopt;
  const auto key_hex = get_str(line, "key");
  const auto benchmark = get_str(line, "benchmark");
  const auto compiler = get_str(line, "compiler");
  const auto status = get_str(line, "status");
  if (!key_hex || !benchmark || !compiler || !status) return std::nullopt;
  JournalEntry e;
  char* end = nullptr;
  e.key = std::strtoull(key_hex->c_str(), &end, 16);
  if (end == key_hex->c_str() || *end != '\0') return std::nullopt;
  e.run.benchmark = *benchmark;
  e.run.compiler = *compiler;
  if (!runtime::parse_status(*status, &e.run.status)) return std::nullopt;
  if (e.run.valid()) {
    const auto best = get_num(line, "best_seconds");
    const auto median = get_num(line, "median_seconds");
    const auto cv = get_num(line, "cv");
    const auto ranks = get_num(line, "ranks");
    const auto threads = get_num(line, "threads");
    const auto bottleneck = get_str(line, "bottleneck");
    const auto gflops = get_num(line, "gflops");
    const auto mem = get_num(line, "mem_gbs");
    if (!best || !median || !cv || !ranks || !threads || !bottleneck ||
        !gflops || !mem)
      return std::nullopt;
    e.run.best_seconds = *best;
    e.run.median_seconds = *median;
    e.run.cv = *cv;
    e.run.placement.ranks = static_cast<int>(*ranks);
    e.run.placement.threads = static_cast<int>(*threads);
    e.run.bottleneck = *bottleneck;
    e.run.gflops = *gflops;
    e.run.mem_gbs = *mem;
  } else {
    e.run.diagnostic = get_str(line, "diagnostic").value_or("");
  }
  e.run.decisions = get_str(line, "decisions").value_or("");
  return e;
}

std::size_t Journal::load(const std::string& path, std::size_t* deduped) {
  std::ifstream f(path);
  if (!f) return 0;
  std::size_t fresh = 0;
  std::string line;
  while (std::getline(f, line)) {
    if (auto e = decode(line)) {
      const std::lock_guard<std::mutex> lock(mu_);
      const bool existed = map_.count(e->key) > 0;
      map_[e->key] = std::move(e->run);  // last complete line wins
      if (existed) {
        if (deduped != nullptr) ++*deduped;
      } else {
        ++fresh;
      }
    }
  }
  return fresh;
}

bool Journal::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) std::fclose(out_);
  // Terminate a torn tail (crashed writer) before appending: without
  // the newline the first fresh record would glue onto the torn prefix
  // and both lines would be lost to decode().
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

void Journal::close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) std::fclose(out_);
  out_ = nullptr;
}

void Journal::record(std::span<const JournalEntry> entries) {
  std::string lines;
  for (const JournalEntry& e : entries) {
    lines += encode(e);
    lines.push_back('\n');
  }
  const std::lock_guard<std::mutex> lock(mu_);
  for (const JournalEntry& e : entries) map_[e.key] = e.run;
  if (out_ != nullptr && !lines.empty()) {
    std::fwrite(lines.data(), 1, lines.size(), out_);
    std::fflush(out_);  // complete lines only, crash-safe
  }
}

void Journal::record(const JournalEntry& e) {
  record(std::span<const JournalEntry>(&e, 1));
}

const runtime::MeasuredRun* Journal::find(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

std::size_t Journal::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace a64fxcc::core
