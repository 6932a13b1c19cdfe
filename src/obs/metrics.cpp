#include "obs/metrics.hpp"

#include <cstdio>

#include "exec/jsonio.hpp"

namespace a64fxcc::obs {

namespace {

using exec::jsonio::append_escaped;

void append_hist(std::string& out, const Histogram& h) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "{\"count\":%llu,\"sum\":%.9f,\"min\":%.9f,\"max\":%.9f,"
                "\"buckets\":[",
                static_cast<unsigned long long>(h.count), h.sum,
                h.count > 0 ? h.min : 0.0, h.max);
  out += buf;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    std::snprintf(buf, sizeof buf, "%s{\"le\":%.9g,\"count\":%llu}",
                  i == 0 ? "" : ",", Histogram::bound(i),
                  static_cast<unsigned long long>(h.buckets[i]));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, ",{\"le\":\"inf\",\"count\":%llu}]}",
                static_cast<unsigned long long>(h.overflow));
  out += buf;
}

}  // namespace

const char* status_counter_name(runtime::CellStatus st) {
  switch (st) {
    case runtime::CellStatus::Ok: return "cells_ok";
    case runtime::CellStatus::CompileError: return "cells_compile_error";
    case runtime::CellStatus::RuntimeError: return "cells_runtime_error";
    case runtime::CellStatus::Crashed: return "cells_crashed";
  }
  return "cells_unknown";
}

void Registry::merge(const Registry& o) {
  for (const auto& [name, v] : o.counters) counters[name] += v;
  for (const auto& [name, h] : o.histograms) histograms[name].merge(h);
}

void Registry::add_cell(runtime::CellStatus status, double wall_seconds,
                        const runtime::RunMetrics& m) {
  counters["jobs_started"] += 1;
  counters[status_counter_name(status)] += 1;
  const struct {
    const char* name;
    int n;
  } counts[] = {{"compile_cache_hits", m.compile_cache_hits},
                {"compile_cache_misses", m.compile_cache_misses},
                {"plan_cache_hits", m.plan_cache_hits},
                {"plan_cache_misses", m.plan_cache_misses},
                {"estimate_cache_hits", m.estimate_cache_hits},
                {"estimate_cache_misses", m.estimate_cache_misses},
                {"analysis_cache_hits", m.analysis_cache_hits},
                {"analysis_cache_misses", m.analysis_cache_misses},
                {"analysis_cache_invalidations",
                 m.analysis_cache_invalidations}};
  for (const auto& c : counts)
    if (c.n > 0) counters[c.name] += static_cast<std::uint64_t>(c.n);
  histograms["cell_wall_seconds"].add(wall_seconds);
  const struct {
    const char* name;
    double seconds;
  } phases[] = {{"phase_compile_seconds", m.compile_seconds},
                {"phase_explore_seconds", m.explore_seconds},
                {"phase_measure_seconds", m.measure_seconds}};
  for (const auto& ph : phases)
    if (ph.seconds > 0) histograms[ph.name].add(ph.seconds);
}

std::string Registry::to_json() const {
  std::string out = "{\"version\":1,\"counters\":{";
  char buf[64];
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_escaped(out, name);
    std::snprintf(buf, sizeof buf, "\":%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  out += "},\"gauges\":{";
  const auto rate_of = [this](const char* hits_name, const char* misses_name) {
    const std::uint64_t hits = counter(hits_name);
    const std::uint64_t misses = counter(misses_name);
    return hits + misses > 0
               ? static_cast<double>(hits) / static_cast<double>(hits + misses)
               : 0.0;
  };
  std::snprintf(buf, sizeof buf, "\"compile_cache_hit_rate\":%.9f",
                rate_of("compile_cache_hits", "compile_cache_misses"));
  out += buf;
  std::snprintf(buf, sizeof buf, ",\"estimate_cache_hit_rate\":%.9f",
                rate_of("estimate_cache_hits", "estimate_cache_misses"));
  out += buf;
  std::snprintf(buf, sizeof buf, ",\"plan_cache_hit_rate\":%.9f",
                rate_of("plan_cache_hits", "plan_cache_misses"));
  out += buf;
  std::snprintf(buf, sizeof buf, ",\"analysis_cache_hit_rate\":%.9f",
                rate_of("analysis_cache_hits", "analysis_cache_misses"));
  out += buf;
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_escaped(out, name);
    out += "\":";
    append_hist(out, h);
  }
  out += "}}\n";
  return out;
}

void MetricsSink::on_event(const exec::Event& e) {
  if (inner_ != nullptr) inner_->on_event(e);
  const std::lock_guard<std::mutex> lock(mu_);
  auto& counters = reg_.counters;
  switch (e.kind) {
    // A cell's start is folded with its terminal event.
    case exec::EventKind::JobStarted:
      break;
    case exec::EventKind::JobFinished:
    case exec::EventKind::JobFailed:
      reg_.add_cell(e.status, e.wall_seconds, e.metrics);
      break;
    // Multi-process lifecycle: spawn/exit counts plus the two headline
    // crash-isolation counters, worker_respawns and cells_released.
    case exec::EventKind::WorkerSpawned:
      counters["workers_spawned"] += 1;
      break;
    case exec::EventKind::WorkerExited:
      counters["workers_exited"] += 1;
      break;
    case exec::EventKind::WorkerRespawned:
      counters["worker_respawns"] += 1;
      break;
    case exec::EventKind::CellReleased:
      counters["cells_released"] += e.count;
      break;
  }
}

void MetricsSink::fold_cache_stats(const cache::Service& svc) {
  const auto all = svc.stats();
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : all) {
    const std::string base = "cache_" + c.name + "_";
    reg_.counters[base + "hits"] = c.stats.hits;
    reg_.counters[base + "misses"] = c.stats.misses;
    reg_.counters[base + "entries"] = c.stats.entries;
    reg_.counters[base + "bytes"] = c.stats.bytes;
  }
}

std::uint64_t MetricsSink::counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return reg_.counter(name);
}

Registry MetricsSink::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return reg_;
}

}  // namespace a64fxcc::obs
