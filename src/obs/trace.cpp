#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "exec/jsonio.hpp"

namespace a64fxcc::obs {

namespace {

using exec::jsonio::append_escaped;

}  // namespace

Span::Span(Tracer* t, const char* name, const std::string& benchmark,
           const std::string& compiler)
    : t_(t),
      name_(name),
      benchmark_(benchmark),
      compiler_(compiler),
      tid_(t->current_tid()),
      begin_seq_(t->next_seq()),
      begin_us_(t->now_us()) {}

Span& Span::operator=(Span&& o) noexcept {
  if (this != &o) {
    end();
    t_ = o.t_;
    name_ = std::move(o.name_);
    benchmark_ = std::move(o.benchmark_);
    compiler_ = std::move(o.compiler_);
    tid_ = o.tid_;
    begin_seq_ = o.begin_seq_;
    begin_us_ = o.begin_us_;
    o.t_ = nullptr;
  }
  return *this;
}

void Span::end() {
  if (t_ == nullptr) return;
  Tracer* t = t_;
  t_ = nullptr;
  const std::uint64_t end_seq = t->next_seq();
  const double end_us = t->now_us();
  t->record({std::move(name_), std::move(benchmark_), std::move(compiler_),
             tid_, begin_seq_, end_seq, begin_us_, end_us});
}

Span scoped(Tracer* t, const char* name, const std::string& benchmark,
            const std::string& compiler) {
  return t == nullptr ? Span{} : Span{t, name, benchmark, compiler};
}

void Tracer::set_record_hook(std::function<void(const Record&)> hook) {
  const std::lock_guard<std::mutex> lock(mu_);
  hook_ = std::move(hook);
}

void Tracer::record(Record r) {
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(r));
  if (hook_) hook_(records_.back());
}

std::vector<Tracer::Record> Tracer::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::current_tid() {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto id = std::this_thread::get_id();
  const auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  const int tid = static_cast<int>(tids_.size());
  tids_.emplace(id, tid);
  return tid;
}

std::vector<Tracer::PhaseSummary> Tracer::summary() const {
  const auto rs = records();
  std::vector<PhaseSummary> out;
  for (const auto& r : rs) {
    PhaseSummary* s = nullptr;
    for (auto& cand : out)
      if (cand.name == r.name) s = &cand;
    if (s == nullptr) {
      out.push_back({r.name, 0, 0, 0});
      s = &out.back();
    }
    s->count += 1;
    s->total_seconds += r.seconds();
    s->max_seconds = std::max(s->max_seconds, r.seconds());
  }
  std::sort(out.begin(), out.end(),
            [](const PhaseSummary& a, const PhaseSummary& b) {
              return a.name < b.name;
            });
  return out;
}

std::string Tracer::summary_text() const {
  std::string out;
  char buf[160];
  for (const auto& s : summary()) {
    std::snprintf(buf, sizeof buf,
                  "  %-12s %6llu span(s)  total %10.6fs  max %10.6fs\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_seconds, s.max_seconds);
    out += buf;
  }
  return out;
}

std::string Tracer::to_chrome_json() const {
  // Split each record into a B and an E half, then order every thread's
  // events by the global sequence captured at begin/end time: per
  // thread this is exactly chronological order with RAII-correct
  // nesting (see header comment).
  struct Ev {
    const Record* r;
    bool begin;
    std::uint64_t seq;
    double us;
  };
  const auto rs = records();
  std::vector<Ev> evs;
  evs.reserve(rs.size() * 2);
  for (const auto& r : rs) {
    evs.push_back({&r, true, r.begin_seq, r.begin_us});
    evs.push_back({&r, false, r.end_seq, r.end_us});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.r->tid != b.r->tid) return a.r->tid < b.r->tid;
    return a.seq < b.seq;
  });

  std::string out = "{\"traceEvents\":[";
  char buf[96];
  bool first = true;
  for (const auto& e : evs) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, e.r->name);
    out += "\",\"cat\":\"cell\",\"ph\":\"";
    out += e.begin ? 'B' : 'E';
    std::snprintf(buf, sizeof buf, "\",\"ts\":%.3f,\"pid\":1,\"tid\":%d", e.us,
                  e.r->tid);
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
  out += "],\"displayTimeUnit\":\"ms\",\"phaseSummary\":[";
  first = true;
  for (const auto& s : summary()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, s.name);
    std::snprintf(buf, sizeof buf,
                  "\",\"count\":%llu,\"total_seconds\":%.9f,"
                  "\"max_seconds\":%.9f}",
                  static_cast<unsigned long long>(s.count), s.total_seconds,
                  s.max_seconds);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace a64fxcc::obs
