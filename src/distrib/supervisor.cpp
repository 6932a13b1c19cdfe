#include "distrib/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/cell.hpp"
#include "exec/engine.hpp"
#include "exec/events.hpp"
#include "exec/line_log.hpp"
#include "exec/process.hpp"
#include "obs/shard.hpp"
#include "obs/trace.hpp"

namespace a64fxcc::distrib {

namespace {

/// Study options as seen inside a worker process: observability belongs
/// to the parent; the worker's output channel is its shard journal,
/// nothing else.
core::StudyOptions worker_options(const core::StudyOptions& base) {
  core::StudyOptions o = base;
  o.sink = nullptr;
  o.tracer = nullptr;
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

/// Deterministic pause before respawn `n` (0-based): 1 ms x 2^n x a
/// jitter in [0.5, 1.5) hashed from n, capped at 50 ms — never a
/// function of the clock or of scheduling.
double respawn_pause(int n) {
  const std::uint64_t h = runtime::cell_stream("distrib", "respawn") ^
                          (0xBAC0FF00ULL + static_cast<std::uint64_t>(n));
  const double jitter = 0.5 + runtime::hash_u01(h);
  return std::min(0.001 * static_cast<double>(1ULL << std::min(n, 20)) *
                      jitter,
                  0.05);
}

/// How many generations past its lease the inline drain skips for a
/// cell whose every generation crashes; it then records that
/// generation's classified crash.
constexpr int kMaxSkippedGenerations = 32;

/// Where one process persists the rows it evaluates.
struct RowSink {
  core::Journal& shard;
  exec::LineLog& metrics;  ///< telemetry; closed when disabled
  LeaseQueue& queue;
  int self = 0;
  /// The shard a worker tears before dying of an injected crash; null
  /// for the inline drain, which cannot die.
  const std::string* crash_shard = nullptr;
  /// Held across each row's shard append, and by an injected crash
  /// from its torn write until the process is gone: another thread's
  /// row lands whole before the fragment or not at all, never glued
  /// behind it (which would lose the row's first line after its leases
  /// completed).
  mutable std::mutex append_mu{};
};

/// Injected process death: leave a torn line in the shard — what a real
/// crash mid-append does — then die without unwinding, flushing stdio,
/// or completing the row's leases.
[[noreturn]] void die_mid_append(const RowSink& out) {
  out.append_mu.lock();  // never released: the process ends holding it
  std::FILE* f = std::fopen(out.crash_shard->c_str(), "a");
  if (f != nullptr) {
    std::fprintf(f, "{\"v\":%d,\"key\":\"00", core::kJournalFormatVersion);
    std::fflush(f);
  }
  exec::hard_exit(139);
}

/// Evaluate one leased row cell by cell through core::evaluate_cell and
/// one runtime::RowMemo, then persist it in the crash-safe order: the
/// row's result lines in one shard append, its telemetry records in
/// another, and last one `done` append for all its leases — so a `done`
/// record implies the result is on disk, and a death before it loses
/// this row only (its leases are released and re-granted at the next
/// generation).
///
/// At a generation whose deterministic decision is an injected crash, a
/// worker dies.  The inline drain cannot die: it skips to the next
/// generation, converging to the generation a worker death + re-lease
/// would have reached.
void run_row(const std::vector<Claim>& row,
             const std::vector<kernels::Benchmark>& suite,
             const runtime::Harness& h, const core::StudyOptions& opt,
             const RowSink& out) {
  const std::size_t cols = opt.compilers.size();
  std::vector<core::JournalEntry> entries;
  std::string telemetry;
  std::vector<std::uint64_t> keys;
  entries.reserve(row.size());
  keys.reserve(row.size());
  runtime::RowMemo memo;
  for (const Claim& cl : row) {
    const auto& bench = suite[cl.index / cols];
    const auto& spec = opt.compilers[cl.index % cols];
    const auto cell_t0 = std::chrono::steady_clock::now();
    core::CellResult res;
    int gen = cl.gen;
    {
      const auto sp = obs::scoped(opt.tracer, "cell", bench.name(), spec.name);
      while (opt.faults.crashes(opt.seed, bench.name(), spec.name, gen)) {
        if (out.crash_shard != nullptr) die_mid_append(out);
        if (gen - cl.gen >= kMaxSkippedGenerations) break;
        ++gen;
      }
      res = core::evaluate_cell(h, opt, bench, spec, memo, gen);
    }
    entries.push_back({cl.key, res.run});
    keys.push_back(cl.key);
    if (out.metrics.is_open()) {
      telemetry += obs::encode_cell(
          {.key = cl.key,
           .benchmark = bench.name(),
           .compiler = spec.name,
           .status = res.run.status,
           .gen = gen,
           .pid = out.self,
           .wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - cell_t0)
                               .count(),
           .metrics = std::move(res.metrics)});
      telemetry += '\n';
    }
  }
  {
    const std::lock_guard<std::mutex> lock(out.append_mu);
    out.shard.record(entries);
  }
  if (!telemetry.empty()) out.metrics.append(telemetry);
  out.queue.complete(keys, out.self);
}

/// Entry point of one forked worker: each of its `threads` threads
/// leases one row -> evaluates -> records -> marks it done, until the
/// queue drains.  `queue` is the supervisor's, inherited across fork()
/// with its replayed state.  Exit codes: 0 = drained; 111 = a row
/// threw; 112/113 = could not reopen the queue / open the shard
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
  exec::LineLog trace_out;
  exec::LineLog metrics_out;
  if (telemetry) {
    if (trace_out.open(trace_path)) {
      wtracer.set_record_hook([&trace_out, self](const obs::Tracer::Record& r) {
        std::string line = obs::encode_span(r, self);
        line += '\n';
        trace_out.append(line);
      });
      topt.tracer = &wtracer;
    }
    (void)metrics_out.open(metrics_path);
  }
  core::Study study(topt);
  const RowSink out{shard, metrics_out, queue, self, &shard_path};
  // One job per thread, each running its own lease loop.
  exec::for_each_job(
      static_cast<std::size_t>(threads), threads, [&](std::size_t, int) {
        while (true) {
          const auto claims = queue.acquire(self, lease_deadline);
          if (claims.empty()) {
            // acquire() just scanned, so drained() is current: stop when
            // every cell is done; otherwise someone else holds the
            // remaining leases — wait for them to finish or expire.
            if (queue.drained()) return;
            nap();
            continue;
          }
          // A row that throws (shard IO, ...) ends this thread's loop,
          // and the worker exits 111 once its other threads stop: the
          // supervisor then releases its leases like any dead worker's.
          run_row(claims, suite, study.harness(), topt, out);
        }
      });
  return 0;
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

  // Rows are benchmarks: a worker leases all of a row's compilers at
  // once, so one memo serves the whole row.
  const std::vector<std::uint64_t> keys = cell_keys(suite, sopt);
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

  // Resume: a cell is a pure function of its key, so a cell done in a
  // previous run keeps its shard outcome, compile and runtime errors
  // included.  Only a crash (XX, which a later lease generation may
  // survive) and a done cell with no outcome (a lost shard file)
  // reopen.  The earlier passes' shards load once, into the journal the
  // reduce completes with this pass's.
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
      if (run != nullptr && run->status != runtime::CellStatus::Crashed) {
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
    ++stats_.workers_spawned;
    emit_worker(exec::EventKind::WorkerSpawned, idx, pid, "");
    return true;
  };

  // Replacements after crashes; once they are spent, the parent drains
  // the remaining rows inline instead of forking again.
  int respawn_budget = 4 + 3 * opt_.procs;
  // A resume that restored every cell forks nobody: the loop below
  // sees the queue drained and goes straight to the reduce.
  for (int i = 0; i < opt_.procs && !queue.drained(); ++i) {
    if (!spawn_worker()) stats_.degraded = true;  // fork failed / no fork
  }

  const auto inline_drain = [&]() {
    // Degraded endgame: every worker is gone and the budget is spent —
    // the parent drains what remains, skipping generations whose
    // deterministic decision is an injected crash (a worker would have
    // died and been re-leased at gen+1; we converge to the same
    // surviving generation without dying).
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
    if (!shard.open(opt_.shard_dir + "/" + shard_name(idx, kInlineShardTag)))
      return;
    exec::LineLog metrics_out;
    if (opt_.telemetry) {
      (void)metrics_out.open(opt_.shard_dir + "/metrics-" +
                             shard_name(idx, kInlineShardTag));
    }
    const int self = exec::current_pid();
    const RowSink out{shard, metrics_out, queue, self};
    int stuck_rounds = 0;
    while (true) {
      const auto claims = queue.acquire(self, 1e9);
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
      run_row(claims, suite, study.harness(), iopt, out);
      stats_.inline_cells += claims.size();
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
        {
          const auto backoff_sp = obs::scoped(tracer, "sup:respawn-backoff");
          std::this_thread::sleep_for(std::chrono::duration<double>(
              respawn_pause(stats_.worker_respawns)));
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
    if (!acted && tracer != nullptr && !wait_span)
      wait_span = obs::scoped(tracer, "sup:lease-wait");
    nap();
  }
  wait_span.end();

  // Final reap: workers notice the drain and exit 0 on their own; a
  // straggler still double-evaluating a re-leased cell gets one lease
  // deadline of grace, then SIGKILL (its duplicate would have been
  // byte-identical anyway).
  const double reap_deadline =
      LeaseQueue::now() + opt_.lease_deadline_seconds + 1.0;
  while (!live.empty()) {
    for (auto it = live.begin(); it != live.end();) {
      if (const auto ex = exec::try_reap(it->pid)) {
        emit_worker(exec::EventKind::WorkerExited, it->spawn_index, it->pid,
                    ex->describe());
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
        }
      }
      live.clear();
      break;
    }
    nap();
  }

  const auto reduce_sp = obs::scoped(tracer, "sup:reduce");
  if (Reducer::load_new_shards(opt_.shard_dir, outcomes, loaded,
                               &stats_.reduce))
    return Reducer::assemble(outcomes, suite, sopt, &stats_.reduce);
  // A shard loaded for the resume decision changed since (a worker of
  // an interrupted earlier run still appending): merge afresh.
  stats_.reduce = {};
  return Reducer::merge(opt_.shard_dir, suite, sopt, &stats_.reduce);
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
