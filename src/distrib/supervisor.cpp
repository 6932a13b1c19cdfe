#include "distrib/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/cell.hpp"
#include "core/journal.hpp"
#include "exec/engine.hpp"
#include "exec/events.hpp"
#include "exec/line_log.hpp"
#include "exec/process.hpp"
#include "obs/shard.hpp"
#include "obs/trace.hpp"

namespace a64fxcc::distrib {

namespace {

/// Study options as seen inside a worker process: observability belongs
/// to the parent; the worker's output channel is the lease log's done
/// records, nothing else.
core::StudyOptions worker_options(const core::StudyOptions& base) {
  core::StudyOptions o = base;
  o.sink = nullptr;
  o.tracer = nullptr;
  o.cache_service = nullptr;
  return o;
}

/// One past the highest shard index in `dir` (trace and metrics shards,
/// and the result shards of older builds; 0 when there are none).  A
/// pass numbers its telemetry shards from here so that file order is
/// creation order across passes: the telemetry aggregator keeps the last
/// record for a cell in sorted file order, and a resumed cell's new
/// record must beat its stale one.  Names are zero-padded to four
/// digits, so that holds for the first 10,000 shards of a directory.
/// Directories of older builds may hold a `shard-<k>-inline.jsonl`; its
/// index counts like any other.
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

/// How far past its lease generation a worker that skips injected
/// crashes goes for a cell whose every generation crashes; it then
/// records that generation's classified crash.
constexpr int kMaxSkippedGenerations = 32;

/// Where one process persists the rows it evaluates.
struct RowSink {
  exec::LineLog& metrics;  ///< telemetry; closed when disabled
  LeaseQueue& queue;
  int self = 0;
  /// A replacement forked once the respawn budget is spent skips
  /// injected crashes instead of dying of them.
  bool skip_crashes = false;
};

/// Evaluate one leased row cell by cell through core::evaluate_cell and
/// one runtime::RowMemo, append its telemetry records (best-effort),
/// then complete its leases: one `done` line per cell carrying the
/// cell's outcome, all in one write, so a death before it loses this
/// row only (its leases are released and re-granted at the next
/// generation).
///
/// At a generation whose deterministic decision is an injected crash, a
/// worker dies on the spot, writing nothing.  A worker that skips
/// crashes moves to the next generation instead, converging to the
/// generation a worker death + re-lease would have reached.  A row whose
/// outcomes do not reach the log throws.
void run_row(const std::vector<Claim>& row,
             const std::vector<kernels::Benchmark>& suite,
             const runtime::Harness& h, const core::StudyOptions& opt,
             const RowSink& out) {
  const std::size_t cols = opt.compilers.size();
  std::vector<std::uint64_t> keys;
  std::vector<std::string> runs;
  std::string telemetry;
  keys.reserve(row.size());
  runs.reserve(row.size());
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
        if (!out.skip_crashes) exec::hard_exit(139);
        if (gen - cl.gen >= kMaxSkippedGenerations) break;
        ++gen;
      }
      res = core::evaluate_cell(h, opt, bench, spec, memo, gen);
    }
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
    runs.push_back(core::Journal::encode({cl.key, std::move(res.run)}));
  }
  if (!telemetry.empty()) out.metrics.append(telemetry);
  if (!out.queue.complete(keys, out.self, runs))
    throw std::runtime_error("distrib: cannot record the row's outcomes");
}

/// Entry point of one forked worker: each of its `threads` threads
/// leases one row -> evaluates -> records -> marks it done, until the
/// queue drains.  `queue` is the supervisor's, inherited across fork()
/// with its replayed state.  A worker with `skip_crashes` set skips
/// injected crashes instead of dying of them (see run_row).  Exit codes:
/// 0 = drained; 111 = a row threw; 112 = could not reopen the queue
/// (infrastructure; the supervisor sees no progress from this pid and
/// re-leases its cells).
int worker_main(LeaseQueue& queue,
                const std::vector<kernels::Benchmark>& suite,
                const core::StudyOptions& wopt, double lease_deadline,
                int threads, bool skip_crashes, bool telemetry,
                std::chrono::steady_clock::time_point epoch,
                const std::string& trace_path,
                const std::string& metrics_path) {
  if (!queue.reopen_after_fork()) return 112;
  const int self = exec::current_pid();
  // Telemetry shards are best-effort: a worker that cannot open one
  // still evaluates cells (outcomes are the contract, telemetry is
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
  const RowSink out{metrics_out, queue, self, skip_crashes};
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
          // A row that throws (a failed done write, ...) ends this
          // thread's loop, and the worker exits 111 once its other
          // threads stop: the supervisor then releases its leases like
          // any dead worker's.
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
  // previous run keeps the outcome its done record carries, compile and
  // runtime errors included.  Only a crash (XX, which a later lease
  // generation may survive) and a done cell whose outcome does not decode
  // reopen: none recorded (older builds kept it in result shards, which
  // nothing reads), another noise generator's, or a retired injected
  // CE/RE (core::Journal::decode).
  {
    const auto resume_sp = obs::scoped(tracer, "sup:resume");
    std::vector<std::uint64_t> reopen;
    for (const std::uint64_t key : keys) {
      if (!queue.done(key)) continue;
      const auto e = core::Journal::decode(queue.outcome(key));
      if (e && e->run.status != runtime::CellStatus::Crashed) {
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
    bool skips_crashes = false;
  };
  std::vector<LiveWorker> live;
  // Spawn indices name the telemetry shards, continuing after any earlier
  // pass's.
  int spawn_seq = next_shard_index(opt_.shard_dir);
  const auto spawn_worker = [&](bool skip_crashes) -> bool {
    const auto spawn_sp = obs::scoped(tracer, "sup:spawn");
    const int idx = spawn_seq++;
    const std::string trace_path =
        opt_.shard_dir + "/" + obs::trace_shard_name(idx);
    const std::string metrics_path =
        opt_.shard_dir + "/" + obs::metrics_shard_name(idx);
    const bool telem = opt_.telemetry;
    const int pid = exec::spawn_process(
        [&, trace_path, metrics_path, skip_crashes, telem] {
          return worker_main(queue, suite, wopt,
                             opt_.lease_deadline_seconds, threads,
                             skip_crashes, telem, epoch, trace_path,
                             metrics_path);
        });
    if (pid < 0) return false;
    live.push_back({idx, pid, skip_crashes});
    ++stats_.workers_spawned;
    emit_worker(exec::EventKind::WorkerSpawned, idx, pid, "");
    return true;
  };

  // Replacements after crashes.  Once they are spent, a crashed worker's
  // replacement skips injected crashes instead of dying of them, and is
  // not replaced itself.
  int respawn_budget = 4 + 3 * opt_.procs;
  // A resume that restored every cell forks nobody: the loop below
  // sees the queue drained and goes straight to the reduce.
  for (int i = 0; i < opt_.procs && !queue.drained(); ++i) {
    if (!spawn_worker(false)) stats_.degraded = true;  // fork failed
  }

  // Idle waiting shows up in the trace as one sup:lease-wait span per
  // contiguous idle stretch (not one per 2ms poll), opened lazily and
  // closed by the next supervisor action.  With no worker left (every
  // fork failed, or the last replacements died) the loop stops waiting:
  // the reduce reports the unfinished cells as missing, and a re-run
  // over the directory reopens them.
  obs::Span wait_span;
  while (!live.empty()) {
    queue.poll();
    if (queue.drained()) break;
    bool acted = false;
    // Reap the dead: release their leases, and replace a crashed one.
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
      // A clean exit saw the queue drained.  A worker that skipped
      // crashes died of something else (a signal, an expired lease, a
      // row that threw), and the budget to replace it is spent.
      const bool replace = !ex->clean() && !it->skips_crashes;
      it = live.erase(it);
      if (!replace) continue;
      queue.poll();
      if (queue.drained()) continue;
      const bool skip_crashes = respawn_budget == 0;
      if (skip_crashes) {
        stats_.degraded = true;
      } else {
        --respawn_budget;
      }
      if (spawn_worker(skip_crashes)) {
        ++stats_.worker_respawns;
        emit_worker(exec::EventKind::WorkerRespawned,
                    live.back().spawn_index, live.back().pid, "");
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
  queue.poll();  // the done records of the workers' last rows
  return Reducer::assemble(queue, suite, sopt, &stats_.reduce);
}

bool Supervisor::load_telemetry(obs::Aggregator& agg) const {
  const bool ok = agg.load_dir(opt_.shard_dir);
  if (opt_.study.tracer != nullptr)
    agg.add_process(exec::current_pid(), "supervisor",
                    opt_.study.tracer->records());
  return ok;
}

}  // namespace a64fxcc::distrib
