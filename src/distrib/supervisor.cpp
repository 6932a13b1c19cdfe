#include "distrib/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <thread>

#include "core/cell.hpp"
#include "distrib/status.hpp"
#include "exec/engine.hpp"
#include "exec/events.hpp"
#include "exec/process.hpp"
#include "obs/shard.hpp"
#include "obs/trace.hpp"

namespace a64fxcc::distrib {

namespace {

/// Injected-crash diagnostic marker (runtime/harness.cpp's message for
/// FaultKind::Crash classified in-process) — the inline drain skips
/// these generations the same way a worker death + re-lease would.
constexpr const char* kInjectedCrashTag = "injected crash fault";

/// Study options as seen inside a worker process: observability and
/// resume plumbing belong to the parent; the worker's output channel
/// is its shard journal, nothing else.
core::StudyOptions worker_options(const core::StudyOptions& base) {
  core::StudyOptions o = base;
  o.sink = nullptr;
  o.tracer = nullptr;
  o.journal = nullptr;
  o.cache_service = nullptr;
  return o;
}

std::string shard_name(int index, const char* tag = "") {
  char buf[48];
  std::snprintf(buf, sizeof buf, "shard-%04d%s.jsonl", index, tag);
  return buf;
}

/// One past the highest shard index in `dir` (result, trace and metrics
/// shards alike; 0 when there are none).  A pass numbers its shards from
/// here so that file order is creation order across passes: the reducer
/// and the telemetry aggregator keep the last line for a key in sorted
/// file order, and a resumed cell's new outcome must beat its stale one.
/// Names are zero-padded to four digits, so that holds for the first
/// 10,000 shards of a directory.
int next_shard_index(const std::string& dir) {
  int next = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    for (const std::string prefix : {"trace-", "metrics-"})
      if (name.rfind(prefix, 0) == 0) name.erase(0, prefix.size());
    if (name.rfind("shard-", 0) != 0) continue;
    const char* digits = name.c_str() + 6;
    char* end = nullptr;
    const long index = std::strtol(digits, &end, 10);
    if (end != digits && index >= 0 && index < 1'000'000)
      next = std::max(next, static_cast<int>(index) + 1);
  }
  return next;
}

void nap() { std::this_thread::sleep_for(std::chrono::milliseconds(2)); }

/// acquire()'s claims (key order) cut into their rows.
std::vector<std::span<const Claim>> rows_of(const std::vector<Claim>& claims,
                                            std::size_t cols) {
  std::vector<std::span<const Claim>> rows;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= claims.size(); ++i) {
    if (i < claims.size() &&
        claims[i].index / cols == claims[begin].index / cols)
      continue;
    rows.emplace_back(claims.data() + begin, i - begin);
    begin = i;
  }
  return rows;
}

/// Where one process persists the rows it evaluates.
struct RowSink {
  core::Journal& shard;
  obs::ShardWriter& metrics;  ///< telemetry; closed when disabled
  LeaseQueue& queue;
  int self = 0;
};

/// Evaluate one leased row cell by cell through core::evaluate_cell,
/// then persist it in the crash-safe order: the row's result lines in
/// one shard append, its telemetry records, and last one `done` append
/// for all its leases — so a `done` record implies the result is on
/// disk, and a death before it loses this row only (its leases are
/// released and re-granted at the next generation).
///
/// A worker passes `on_crash` and dies on an injected crash.  The
/// inline drain cannot die: it skips generations whose deterministic
/// fault decision is an injected crash, converging to the generation a
/// worker death + re-lease would have reached.
void run_row(std::span<const Claim> row,
             const std::vector<kernels::Benchmark>& suite,
             const runtime::Harness& h, const core::StudyOptions& opt,
             const core::CrashFn& on_crash, const RowSink& out) {
  const std::size_t cols = opt.compilers.size();
  std::vector<core::JournalEntry> entries;
  std::vector<std::string> telemetry;
  std::vector<std::uint64_t> keys;
  entries.reserve(row.size());
  keys.reserve(row.size());
  for (const Claim& cl : row) {
    const auto& bench = suite[cl.index / cols];
    const auto& spec = opt.compilers[cl.index % cols];
    const auto cell_t0 = std::chrono::steady_clock::now();
    core::CellResult res;
    int gen = cl.gen;
    {
      const auto sp = obs::scoped(opt.tracer, "cell", bench.name(), spec.name);
      for (;; ++gen) {
        res = core::evaluate_cell(h, opt, bench, spec, gen, {}, on_crash);
        const bool injected_crash =
            res.run.status == runtime::CellStatus::Crashed &&
            res.run.diagnostic.find(kInjectedCrashTag) != std::string::npos;
        if (on_crash || !injected_crash || gen - cl.gen >= 32) break;
      }
    }
    entries.push_back({cl.key, res.run});
    keys.push_back(cl.key);
    if (out.metrics.is_open()) {
      telemetry.push_back(obs::encode_cell(
          {.key = cl.key,
           .benchmark = bench.name(),
           .compiler = spec.name,
           .status = res.run.status,
           .gen = gen,
           .attempt = res.attempt,
           .pid = out.self,
           .wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - cell_t0)
                               .count(),
           .metrics = std::move(res.metrics)}));
    }
  }
  out.shard.record(entries);
  for (const std::string& line : telemetry) out.metrics.append(line);
  out.queue.complete(keys, out.self);
}

/// Entry point of one forked worker: lease rows -> evaluate -> record ->
/// done, until the queue drains.  `queue` is the supervisor's, inherited
/// across fork() with its replayed state.  Exit codes: 0 = drained;
/// 112/113 = could not reopen the queue / open the shard
/// (infrastructure; the supervisor sees no progress from this pid and
/// re-leases its cells).
int worker_main(LeaseQueue& queue, const std::string& shard_path,
                const std::vector<kernels::Benchmark>& suite,
                const core::StudyOptions& wopt, double lease_deadline,
                int threads, bool telemetry,
                std::chrono::steady_clock::time_point epoch,
                const std::string& trace_path,
                const std::string& metrics_path) {
  if (!queue.reopen_after_fork()) return 112;
  core::Journal shard;
  if (!shard.open(shard_path)) return 113;
  const int self = exec::current_pid();
  // Telemetry shards are best-effort: a worker that cannot open one
  // still evaluates cells (results are the contract, telemetry is
  // diagnostics).  Spans stream to disk the moment they close, so a
  // SIGKILL loses only the span in flight; cell records append before
  // the row's leases complete, making them at-least-once — the
  // aggregator dedupes by cell key.
  core::StudyOptions topt = wopt;
  obs::Tracer wtracer(epoch);
  obs::ShardWriter trace_out;
  obs::ShardWriter metrics_out;
  if (telemetry) {
    if (trace_out.open(trace_path)) {
      wtracer.set_record_hook([&trace_out, self](const obs::Tracer::Record& r) {
        trace_out.append(obs::encode_span(r, self));
      });
      topt.tracer = &wtracer;
    }
    (void)metrics_out.open(metrics_path);
  }
  core::Study study(topt);
  const core::CrashFn on_crash = [&shard_path](int) {
    // Injected process death: leave a torn line in the shard — what a
    // real crash mid-append does — then die without unwinding, flushing
    // stdio, or completing the row's leases.
    std::FILE* f = std::fopen(shard_path.c_str(), "a");
    if (f != nullptr) {
      std::fprintf(f, "{\"v\":%d,\"key\":\"00", core::kJournalFormatVersion);
      std::fflush(f);
    }
    exec::hard_exit(139);
  };
  const RowSink out{shard, metrics_out, queue, self};
  const std::size_t cols = topt.compilers.size();
  exec::Engine engine(threads);
  while (true) {
    // One row per engine thread per lease transaction.
    const auto claims = queue.acquire(self, lease_deadline,
                                      static_cast<std::size_t>(threads));
    if (claims.empty()) {
      // acquire() just scanned, so drained() is current: leave cleanly
      // (exit 0) when every cell is done; otherwise someone else holds
      // the remaining leases — wait for them to finish or expire.
      if (queue.drained()) return 0;
      nap();
      continue;
    }
    const auto rows = rows_of(claims, cols);
    (void)engine.try_run(
        rows.size(),
        [&](std::size_t i, int) {
          run_row(rows[i], suite, study.harness(), topt, on_crash, out);
        });
    // A job that threw (shard IO, ...) left its row leased; the leases
    // expire and are re-granted — no special handling here.
  }
}

}  // namespace

Supervisor::Supervisor(SupervisorOptions opt) : opt_(std::move(opt)) {
  if (opt_.procs < 1) opt_.procs = 1;
  if (opt_.lease_deadline_seconds <= 0) opt_.lease_deadline_seconds = 30;
}

report::Table Supervisor::run_suite(
    const std::vector<kernels::Benchmark>& suite) {
  stats_ = {};
  const core::StudyOptions& sopt = opt_.study;
  const std::size_t cols = sopt.compilers.size();

  std::filesystem::create_directories(opt_.shard_dir);
  const std::string lease_path = opt_.shard_dir + "/leases.jsonl";

  // Row-major cell universe, same keys the resume journal uses.
  std::vector<std::uint64_t> keys;
  keys.reserve(suite.size() * cols);
  for (const auto& bench : suite)
    for (const auto& spec : sopt.compilers)
      keys.push_back(core::Journal::cell_key(sopt.seed, spec,
                                             bench.fingerprint(),
                                             sopt.apply_quirks));

  // Rows are benchmarks: a worker leases all of a row's compilers at
  // once, so its per-benchmark caches serve the whole row.
  LeaseQueue queue(lease_path, keys, cols);
  if (!queue.open())
    throw std::runtime_error("distrib: cannot open work queue at " +
                             lease_path);
  queue.poll();

  // Lifecycle spans record on the parent tracer (inert when none);
  // workers inherit its epoch so every process shares one time axis
  // (steady_clock is machine-wide per boot, so the epoch survives
  // fork).  Without a tracer the epoch is captured here for the same
  // reason.
  obs::Tracer* const tracer = sopt.tracer;
  const std::chrono::steady_clock::time_point epoch =
      tracer != nullptr ? tracer->epoch() : std::chrono::steady_clock::now();

  // Live status: throttled atomic-rename publications of status.json
  // (see distrib/status.hpp).  done0/run_t0 anchor the ETA rate so
  // resumed cells don't inflate it.
  const std::string status_path = opt_.shard_dir + "/status.json";
  const double run_t0 = LeaseQueue::now();
  std::vector<WorkerStatus> roster;
  std::size_t done0 = 0;
  int max_gen = 0;
  double last_status = -1e30;
  const auto publish_status = [&](const char* phase, bool force) {
    if (opt_.status_interval_seconds <= 0) return;
    const double now = LeaseQueue::now();
    if (!force && now - last_status < opt_.status_interval_seconds) return;
    last_status = now;
    StudyStatus st;
    st.phase = phase;
    st.elapsed_seconds = now - run_t0;
    st.cells_total = keys.size();
    st.cells_done = queue.done_count();
    const auto leases = queue.active_leases();
    st.cells_leased = leases.size();
    for (const auto& l : leases) max_gen = std::max(max_gen, l.gen);
    st.cells_resumed = stats_.resumed_cells;
    st.cells_released = stats_.cells_released;
    st.workers_spawned = stats_.workers_spawned;
    st.worker_respawns = stats_.worker_respawns;
    st.max_generation = max_gen;
    st.degraded = stats_.degraded;
    const double rate =
        st.elapsed_seconds > 0.05 && st.cells_done > done0
            ? static_cast<double>(st.cells_done - done0) / st.elapsed_seconds
            : 0;
    st.eta_seconds =
        rate > 0 ? static_cast<double>(st.cells_remaining()) / rate : -1;
    st.workers = roster;
    (void)write_status(st, status_path);
  };

  const auto emit_worker = [&](exec::EventKind kind, int spawn_index, int pid,
                               std::string detail) {
    if (sopt.sink == nullptr) return;
    sopt.sink->on_event({.kind = kind,
                         .worker = spawn_index,
                         .count = static_cast<std::uint64_t>(pid),
                         .detail = std::move(detail)});
  };
  const auto emit_released = [&](std::size_t cells, int owner) {
    if (sopt.sink == nullptr) return;
    sopt.sink->on_event({.kind = exec::EventKind::CellReleased,
                         .count = cells,
                         .detail = "pid " + std::to_string(owner)});
  };

  // Resume: cells done in a previous run keep their shard outcome when
  // it is valid; done-but-failed (or done-but-missing — a lost shard
  // file) cells reopen, mirroring the single-process journal's
  // "failed cells re-evaluate" semantics.  The earlier passes' shards
  // load once, into the journal the reduce completes with this pass's.
  core::Journal outcomes;
  std::vector<LoadedShard> loaded;
  {
    const auto resume_sp = obs::scoped(tracer, "sup:resume");
    (void)Reducer::load_new_shards(opt_.shard_dir, outcomes, loaded,
                                   &stats_.reduce);
    std::vector<std::uint64_t> reopen;
    for (const std::uint64_t key : keys) {
      if (!queue.done(key)) continue;
      const runtime::MeasuredRun* run = outcomes.find(key);
      if (run != nullptr && run->valid()) {
        ++stats_.resumed_cells;
      } else {
        reopen.push_back(key);
      }
    }
    if (!reopen.empty()) (void)queue.reopen(reopen);
    stats_.reopened_cells = reopen.size();
    // Any lease on the books right now is orphaned (we have no workers
    // yet): an interrupted previous run, possibly from a previous boot
    // whose monotonic deadlines are meaningless — release uniformly.
    for (const auto& l : queue.active_leases()) {
      if (queue.release(l.key, l.owner)) {
        ++stats_.cells_released;
        emit_released(1, l.owner);
      }
    }
  }
  done0 = queue.done_count();
  publish_status("resume", false);  // the first publication always passes

  const core::StudyOptions wopt = worker_options(sopt);
  const int threads = sopt.jobs > 0 ? sopt.jobs : 1;

  struct LiveWorker {
    int spawn_index = 0;
    int pid = 0;
  };
  std::vector<LiveWorker> live;
  // Spawn indices name the shards, continuing after any earlier pass's.
  int spawn_seq = next_shard_index(opt_.shard_dir);
  const auto spawn_worker = [&]() -> bool {
    const auto spawn_sp = obs::scoped(tracer, "sup:spawn");
    const int idx = spawn_seq++;
    const std::string shard_path = opt_.shard_dir + "/" + shard_name(idx);
    const std::string trace_path =
        opt_.shard_dir + "/" + obs::trace_shard_name(idx);
    const std::string metrics_path =
        opt_.shard_dir + "/" + obs::metrics_shard_name(idx);
    const bool telem = opt_.telemetry;
    const int pid =
        exec::spawn_process([&, shard_path, trace_path, metrics_path, telem] {
          return worker_main(queue, shard_path, suite, wopt,
                             opt_.lease_deadline_seconds, threads, telem,
                             epoch, trace_path, metrics_path);
        });
    if (pid < 0) return false;
    live.push_back({idx, pid});
    roster.push_back({idx, pid, "alive", ""});
    ++stats_.workers_spawned;
    emit_worker(exec::EventKind::WorkerSpawned, idx, pid, "");
    return true;
  };

  int respawn_budget =
      opt_.max_respawns >= 0 ? opt_.max_respawns : 4 + 3 * opt_.procs;
  for (int i = 0; i < opt_.procs; ++i) {
    if (!spawn_worker()) stats_.degraded = true;  // fork failed / no fork
  }

  const auto inline_drain = [&]() {
    // Degraded endgame: every worker is gone and the budget is spent —
    // the parent drains what remains, skipping generations whose
    // deterministic fault decision is an injected crash (a worker
    // would have died and been re-leased at gen+1; we converge to the
    // same surviving generation without dying).
    const auto drain_sp = obs::scoped(tracer, "sup:inline-drain");
    // The parent's tracer observes the inline cells (they land on the
    // supervisor's trace row); results and cell records go to shards
    // numbered after every worker's, so in a merge the inline outcomes
    // win (duplicates are byte-identical anyway).
    core::StudyOptions iopt = wopt;
    iopt.tracer = tracer;
    core::Study study(iopt);
    const int idx = spawn_seq++;
    core::Journal shard;
    if (!shard.open(opt_.shard_dir + "/" + shard_name(idx, "-inline")))
      return;
    obs::ShardWriter metrics_out;
    if (opt_.telemetry) {
      (void)metrics_out.open(opt_.shard_dir + "/metrics-" +
                             shard_name(idx, "-inline"));
    }
    const int self = exec::current_pid();
    const RowSink out{shard, metrics_out, queue, self};
    int stuck_rounds = 0;
    while (true) {
      const auto claims = queue.acquire(self, 1e9, 1);
      if (claims.empty()) {
        if (queue.drained()) break;
        // Unexpired leases of dead owners: force-release and retry.
        bool released = false;
        for (const auto& l : queue.active_leases()) {
          if (l.owner != self && queue.release(l.key, l.owner)) {
            released = true;
            ++stats_.cells_released;
          }
        }
        if (!released && ++stuck_rounds > 3) break;  // cannot progress
        continue;
      }
      stuck_rounds = 0;
      run_row(claims, suite, study.harness(), iopt, {}, out);
      stats_.inline_cells += claims.size();
      publish_status("inline-drain", false);
    }
    if (stats_.inline_cells > 0) stats_.degraded = true;
  };

  // Idle waiting shows up in the trace as one sup:lease-wait span per
  // contiguous idle stretch (not one per 2ms poll), opened lazily and
  // closed by the next supervisor action.
  obs::Span wait_span;
  while (true) {
    queue.poll();
    if (queue.drained()) break;
    bool acted = false;
    // Reap the dead: release their leases, respawn while budget lasts.
    for (auto it = live.begin(); it != live.end();) {
      const auto ex = exec::try_reap(it->pid);
      if (!ex) {
        ++it;
        continue;
      }
      wait_span.end();
      acted = true;
      const auto reap_sp = obs::scoped(tracer, "sup:reap");
      emit_worker(exec::EventKind::WorkerExited, it->spawn_index, it->pid,
                  ex->describe());
      for (auto& w : roster) {
        if (w.pid == it->pid && w.state == "alive") {
          w.state = "exited";
          w.detail = ex->describe();
        }
      }
      const std::size_t released = queue.release_owner(it->pid);
      if (released > 0) {
        stats_.cells_released += released;
        emit_released(released, it->pid);
      }
      const bool crashed = !ex->clean();
      it = live.erase(it);
      if (!crashed) continue;  // drained from its point of view
      queue.poll();
      if (queue.drained()) continue;
      if (respawn_budget > 0) {
        --respawn_budget;
        // Deterministic respawn pacing — the same backoff schedule an
        // in-process retry would take, keyed by the respawn ordinal.
        const double b = core::retry_backoff(sopt.retry_backoff_seconds,
                                             "distrib", "respawn",
                                             stats_.worker_respawns);
        {
          const auto backoff_sp = obs::scoped(tracer, "sup:respawn-backoff");
          std::this_thread::sleep_for(
              std::chrono::duration<double>(std::min(b, 0.05)));
        }
        if (spawn_worker()) {
          ++stats_.worker_respawns;
          emit_worker(exec::EventKind::WorkerRespawned,
                      live.back().spawn_index, live.back().pid, "");
        } else {
          stats_.degraded = true;
        }
      } else {
        stats_.degraded = true;
      }
    }
    // Hung workers: a live pid holding an expired lease gets SIGKILL
    // (reaped above next round, which releases all its cells);
    // expired leases of unmanaged pids are released directly.
    const auto expired = queue.expired_leases(LeaseQueue::now());
    if (!expired.empty()) {
      wait_span.end();
      acted = true;
    }
    const auto relse_sp = expired.empty()
                              ? obs::Span()
                              : obs::scoped(tracer, "sup:re-lease");
    for (const auto& l : expired) {
      bool managed = false;
      for (const auto& w : live) managed = managed || w.pid == l.owner;
      if (managed) {
        exec::kill_process(l.owner);
      } else if (queue.release(l.key, l.owner)) {
        ++stats_.cells_released;
        emit_released(1, l.owner);
      }
    }
    if (live.empty()) {
      queue.poll();
      if (queue.drained()) break;
      wait_span.end();
      inline_drain();
      break;
    }
    publish_status("running", false);
    if (!acted && tracer != nullptr && !wait_span)
      wait_span = obs::scoped(tracer, "sup:lease-wait");
    nap();
  }
  wait_span.end();

  // Final reap: workers notice the drain and exit 0 on their own; a
  // straggler still double-evaluating a re-leased cell gets one lease
  // deadline of grace, then SIGKILL (its duplicate would have been
  // byte-identical anyway).
  const auto roster_exited = [&](int pid, const std::string& detail) {
    for (auto& w : roster) {
      if (w.pid == pid && w.state == "alive") {
        w.state = "exited";
        w.detail = detail;
      }
    }
  };
  const double reap_deadline =
      LeaseQueue::now() + opt_.lease_deadline_seconds + 1.0;
  while (!live.empty()) {
    for (auto it = live.begin(); it != live.end();) {
      if (const auto ex = exec::try_reap(it->pid)) {
        emit_worker(exec::EventKind::WorkerExited, it->spawn_index, it->pid,
                    ex->describe());
        roster_exited(it->pid, ex->describe());
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    if (live.empty()) break;
    if (LeaseQueue::now() > reap_deadline) {
      for (const auto& w : live) exec::kill_process(w.pid);
      for (const auto& w : live) {
        if (const auto ex = exec::reap(w.pid)) {
          emit_worker(exec::EventKind::WorkerExited, w.spawn_index, w.pid,
                      ex->describe());
          roster_exited(w.pid, ex->describe());
        }
      }
      live.clear();
      break;
    }
    publish_status("draining", false);
    nap();
  }

  report::Table table = [&] {
    const auto reduce_sp = obs::scoped(tracer, "sup:reduce");
    if (Reducer::load_new_shards(opt_.shard_dir, outcomes, loaded,
                                 &stats_.reduce))
      return Reducer::assemble(outcomes, suite, sopt, &stats_.reduce);
    // A shard loaded for the resume decision changed since (a worker of
    // an interrupted earlier run still appending): merge afresh.
    stats_.reduce = {};
    return Reducer::merge(opt_.shard_dir, suite, sopt, &stats_.reduce);
  }();
  publish_status("done", true);
  return table;
}

report::Table Supervisor::run_all() {
  return run_suite(kernels::all_benchmarks(opt_.study.scale));
}

bool Supervisor::load_telemetry(obs::Aggregator& agg) const {
  const bool ok = agg.load_dir(opt_.shard_dir);
  if (opt_.study.tracer != nullptr)
    agg.add_process(exec::current_pid(), "supervisor",
                    opt_.study.tracer->records());
  return ok;
}

}  // namespace a64fxcc::distrib
