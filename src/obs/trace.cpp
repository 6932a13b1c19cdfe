#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace a64fxcc::obs {

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

}  // namespace a64fxcc::obs
