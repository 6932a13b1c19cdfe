#include "distrib/status.hpp"

#include <cstdio>

#include "exec/jsonio.hpp"

namespace a64fxcc::distrib {

namespace {

namespace jsonio = exec::jsonio;
using jsonio::field_num;
using jsonio::field_str;

}  // namespace

std::string encode_status(const StudyStatus& st) {
  std::string out = "{";
  field_num(out, "v", kStatusFormatVersion);
  out += ",";
  field_str(out, "phase", st.phase);
  out += ",";
  field_num(out, "elapsed_seconds", st.elapsed_seconds);
  out += ",";
  field_num(out, "cells_total", static_cast<double>(st.cells_total));
  out += ",";
  field_num(out, "cells_done", static_cast<double>(st.cells_done));
  out += ",";
  field_num(out, "cells_leased", static_cast<double>(st.cells_leased));
  out += ",";
  field_num(out, "cells_resumed", static_cast<double>(st.cells_resumed));
  out += ",";
  field_num(out, "cells_released", static_cast<double>(st.cells_released));
  out += ",";
  field_num(out, "workers_spawned", st.workers_spawned);
  out += ",";
  field_num(out, "worker_respawns", st.worker_respawns);
  out += ",";
  field_num(out, "max_generation", st.max_generation);
  out += ",";
  field_num(out, "degraded", st.degraded ? 1 : 0);
  out += ",";
  field_num(out, "eta_seconds", st.eta_seconds);
  out += ",\"workers\":[";
  for (std::size_t i = 0; i < st.workers.size(); ++i) {
    const WorkerStatus& w = st.workers[i];
    if (i > 0) out += ",";
    out += "{";
    field_num(out, "spawn_index", w.spawn_index);
    out += ",";
    field_num(out, "pid", w.pid);
    out += ",";
    field_str(out, "state", w.state);
    out += ",";
    field_str(out, "detail", w.detail);
    out += "}";
  }
  out += "]}\n";
  return out;
}

std::optional<StudyStatus> decode_status(std::string_view doc) {
  static constexpr std::string_view kKeys[] = {
      "v", "phase", "elapsed_seconds", "cells_total", "cells_done",
      "cells_leased", "cells_resumed", "cells_released", "workers_spawned",
      "worker_respawns", "max_generation", "degraded", "eta_seconds",
      "workers"};
  std::string_view f[std::size(kKeys)];
  if (!jsonio::pick(doc, kKeys, f)) return std::nullopt;
  const auto& [v, phase, elapsed, total, done, leased, resumed, released,
               spawned, respawns, max_gen, degraded, eta, workers] = f;
  if (const auto ver = jsonio::num(v); !ver || *ver > kStatusFormatVersion)
    return std::nullopt;
  const auto t = jsonio::num(total);
  const auto d = jsonio::num(done);
  StudyStatus st;
  if (!jsonio::str(phase, st.phase) || !t || !d) return std::nullopt;
  const auto count = [](std::string_view raw) {
    return static_cast<std::size_t>(jsonio::num(raw).value_or(0));
  };
  const auto small = [](std::string_view raw) {
    return static_cast<int>(jsonio::num(raw).value_or(0));
  };
  st.cells_total = static_cast<std::size_t>(*t);
  st.cells_done = static_cast<std::size_t>(*d);
  st.elapsed_seconds = jsonio::num(elapsed).value_or(0);
  st.cells_leased = count(leased);
  st.cells_resumed = count(resumed);
  st.cells_released = count(released);
  st.workers_spawned = small(spawned);
  st.worker_respawns = small(respawns);
  st.max_generation = small(max_gen);
  st.degraded = small(degraded) != 0;
  st.eta_seconds = jsonio::num(eta).value_or(-1);
  // Roster entries that are not objects are skipped.
  (void)jsonio::for_each_element(workers, [&](std::string_view entry) {
    static constexpr std::string_view kWorkerKeys[] = {"spawn_index", "pid",
                                                       "state", "detail"};
    std::string_view w[std::size(kWorkerKeys)];
    if (!jsonio::pick(entry, kWorkerKeys, w)) return;
    WorkerStatus ws;
    ws.spawn_index = small(w[0]);
    ws.pid = small(w[1]);
    if (!jsonio::str(w[2], ws.state)) ws.state = "?";
    (void)jsonio::str(w[3], ws.detail);
    st.workers.push_back(std::move(ws));
  });
  return st;
}

bool write_status(const StudyStatus& st, const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = encode_status(st);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (std::fclose(f) != 0 || !ok) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<StudyStatus> load_status(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string doc;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) doc.append(buf, n);
  std::fclose(f);
  return decode_status(doc);
}

std::string render_status(const StudyStatus& st) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "study %s%s — %.1fs elapsed\n",
                st.phase.c_str(), st.degraded ? " (degraded)" : "",
                st.elapsed_seconds);
  out += buf;
  const double pct =
      st.cells_total > 0
          ? 100.0 * static_cast<double>(st.cells_done) /
                static_cast<double>(st.cells_total)
          : 0.0;
  std::snprintf(buf, sizeof buf,
                "  cells   %zu/%zu done (%.1f%%), %zu leased, %zu "
                "remaining\n",
                st.cells_done, st.cells_total, pct, st.cells_leased,
                st.cells_remaining());
  out += buf;
  std::snprintf(buf, sizeof buf,
                "          %zu resumed, %zu released, max generation %d\n",
                st.cells_resumed, st.cells_released, st.max_generation);
  out += buf;
  if (st.eta_seconds >= 0) {
    std::snprintf(buf, sizeof buf, "  eta     %.1fs\n", st.eta_seconds);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "  workers %d spawned, %d respawned\n",
                st.workers_spawned, st.worker_respawns);
  out += buf;
  for (const auto& w : st.workers) {
    std::snprintf(buf, sizeof buf, "    [w%d] pid %d %s%s%s\n",
                  w.spawn_index, w.pid, w.state.c_str(),
                  w.detail.empty() ? "" : ": ",
                  w.detail.c_str());
    out += buf;
  }
  return out;
}

}  // namespace a64fxcc::distrib
