#include "core/journal.hpp"

#include "cache/fingerprint.hpp"
#include "exec/jsonio.hpp"
#include "ir/fingerprint.hpp"

namespace a64fxcc::core {

// The line codec lives in exec/jsonio.hpp, shared with the lease queue
// and the telemetry shards: one escaping convention across every
// durable log.
namespace jsonio = exec::jsonio;

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
  const runtime::MeasuredRun& r = e.run;
  std::string out;
  // Field names, punctuation and seven numbers fit in 400 bytes; only
  // escapes in the strings can make the line grow once more.
  out.reserve(400 + r.benchmark.size() + r.compiler.size() +
              r.bottleneck.size() + r.diagnostic.size() + r.decisions.size());
  out += '{';
  jsonio::field_num(out, "v", kJournalFormatVersion);
  out += ',';
  jsonio::field_hex64(out, "key", e.key);
  out += ',';
  jsonio::field_str(out, "benchmark", r.benchmark);
  out += ',';
  jsonio::field_str(out, "compiler", r.compiler);
  out += ',';
  jsonio::field_str(out, "status", runtime::to_string(r.status));
  if (r.valid()) {
    out += ',';
    jsonio::field_num(out, "best_seconds", r.best_seconds);
    out += ',';
    jsonio::field_num(out, "median_seconds", r.median_seconds);
    out += ',';
    jsonio::field_num(out, "cv", r.cv);
    out += ',';
    jsonio::field_num(out, "ranks", r.placement.ranks);
    out += ',';
    jsonio::field_num(out, "threads", r.placement.threads);
    out += ',';
    jsonio::field_str(out, "bottleneck", r.bottleneck);
    out += ',';
    jsonio::field_num(out, "gflops", r.gflops);
    out += ',';
    jsonio::field_num(out, "mem_gbs", r.mem_gbs);
  } else {
    out += ',';
    jsonio::field_str(out, "diagnostic", r.diagnostic);
  }
  if (!r.decisions.empty()) {
    out += ',';
    jsonio::field_str(out, "decisions", r.decisions);
  }
  out += '}';
  return out;
}

std::optional<JournalEntry> Journal::decode(std::string_view line) {
  static constexpr std::string_view kKeys[] = {
      "v", "key", "benchmark", "compiler", "status",
      "best_seconds", "median_seconds", "cv", "ranks", "threads",
      "bottleneck", "gflops", "mem_gbs", "diagnostic", "decisions"};
  std::string_view f[std::size(kKeys)];
  if (!jsonio::pick(line, kKeys, f)) return std::nullopt;
  const auto& [v, key, benchmark, compiler, status, best, median, cv, ranks,
               threads, bottleneck, gflops, mem, diagnostic, decisions] = f;
  // Version gate: only this build's format resumes.  Untagged v1 and v2
  // lines hold measurements drawn with an older noise generator, and
  // newer lines would be half-parsed; all of them are skipped.
  if (jsonio::num(v) != kJournalFormatVersion) return std::nullopt;
  const auto k = jsonio::hex64(key);
  if (!k) return std::nullopt;
  JournalEntry e;
  e.key = *k;
  std::string label;  // status labels fit the small-string buffer
  if (!jsonio::str(benchmark, e.run.benchmark) ||
      !jsonio::str(compiler, e.run.compiler) || !jsonio::str(status, label) ||
      !runtime::parse_status(label, &e.run.status))
    return std::nullopt;
  if (e.run.valid()) {
    const auto b = jsonio::num(best);
    const auto m = jsonio::num(median);
    const auto c = jsonio::num(cv);
    const auto rk = jsonio::num(ranks);
    const auto th = jsonio::num(threads);
    const auto g = jsonio::num(gflops);
    const auto mb = jsonio::num(mem);
    if (!b || !m || !c || !rk || !th || !g || !mb ||
        !jsonio::str(bottleneck, e.run.bottleneck))
      return std::nullopt;
    e.run.best_seconds = *b;
    e.run.median_seconds = *m;
    e.run.cv = *c;
    e.run.placement.ranks = static_cast<int>(*rk);
    e.run.placement.threads = static_cast<int>(*th);
    e.run.gflops = *g;
    e.run.mem_gbs = *mb;
  } else {
    (void)jsonio::str(diagnostic, e.run.diagnostic);  // absent: empty
    // Only the crash fault is still injected (XX); a CE or RE line
    // stamped "injected " comes from a retired fault kind, and its cell
    // must re-evaluate rather than restore a failure a re-run clears.
    if (e.run.status != runtime::CellStatus::Crashed &&
        e.run.diagnostic.starts_with("injected "))
      return std::nullopt;
  }
  (void)jsonio::str(decisions, e.run.decisions);
  return e;
}

std::size_t Journal::load(const std::string& path, std::size_t* deduped) {
  std::size_t fresh = 0;
  const std::lock_guard<std::mutex> lock(mu_);
  (void)exec::LineLog::read_all(path, [&](std::string_view line) {
    auto e = decode(line);
    if (!e) return;
    const auto [it, inserted] = map_.try_emplace(e->key);
    it->second = std::move(e->run);  // last complete line wins
    if (inserted) {
      ++fresh;
    } else if (deduped != nullptr) {
      ++*deduped;
    }
  });
  return fresh;
}

bool Journal::open(const std::string& path) { return out_.open(path); }

void Journal::close() { out_.close(); }

bool Journal::record(std::span<const JournalEntry> entries) {
  if (entries.empty()) return true;
  if (!out_.is_open()) return false;
  std::string lines;
  for (const JournalEntry& e : entries) {
    lines += encode(e);
    lines.push_back('\n');
  }
  return out_.append(lines);
}

bool Journal::record(const JournalEntry& e) {
  return record(std::span<const JournalEntry>(&e, 1));
}

const runtime::MeasuredRun* Journal::find(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

std::optional<runtime::MeasuredRun> Journal::take(std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto node = map_.extract(key);
  if (node.empty()) return std::nullopt;
  return std::move(node.mapped());
}

std::size_t Journal::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace a64fxcc::core
