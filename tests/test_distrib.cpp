// Multi-process studies: durable work-queue leases, per-worker shard
// journals, supervisor crash recovery, and the reducer merge.
//
// The headline guarantee (the PR's acceptance criterion): kill -9 of a
// worker mid-study yields, after re-lease and merge, a table
// byte-identical to a clean single-process run — asserted below with a
// real SIGKILL, and for injected crash faults, and across --procs and
// --jobs combinations.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.hpp"
#include "core/study.hpp"
#include "distrib/reducer.hpp"
#include "distrib/status.hpp"
#include "distrib/supervisor.hpp"
#include "distrib/work_queue.hpp"
#include "exec/events.hpp"
#include "exec/process.hpp"
#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/figure2.hpp"

namespace {

using namespace a64fxcc;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "a64fxcc_distrib_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Small (8 benchmark x 5 compiler) grid: enough cells to spread over
/// workers, cheap enough to evaluate several times per test.
std::vector<kernels::Benchmark> small_suite() {
  auto s = kernels::microkernel_suite(0.05);
  s.erase(s.begin() + 8, s.end());
  return s;
}

core::StudyOptions small_options() {
  core::StudyOptions opt;
  opt.scale = 0.05;
  return opt;
}

report::Table clean_single_process(const core::StudyOptions& opt,
                                   const std::vector<kernels::Benchmark>& s) {
  auto clean = opt;
  clean.jobs = 1;
  clean.faults = {};
  return core::Study(std::move(clean)).run_suite(s);
}

// ---- lease record codec ----------------------------------------------------

TEST(LeaseRecord, EncodeDecodeRoundTripsEveryOp) {
  using Op = distrib::LeaseRecord::Op;
  for (const Op op : {Op::Lease, Op::Done, Op::Release, Op::Reopen}) {
    distrib::LeaseRecord rec;
    rec.op = op;
    rec.key = 0xDEADBEEF12345678ULL;
    rec.owner = 4242;
    rec.gen = 3;
    rec.deadline = 123456.789;
    const auto back = distrib::LeaseQueue::decode(distrib::LeaseQueue::encode(rec));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->op, op);
    EXPECT_EQ(back->key, rec.key);
    EXPECT_EQ(back->owner, rec.owner);
    EXPECT_EQ(back->gen, rec.gen);
    EXPECT_NEAR(back->deadline, rec.deadline, 1e-6);
  }
}

TEST(LeaseRecord, DecodeRejectsTornForeignAndFutureLines) {
  EXPECT_FALSE(distrib::LeaseQueue::decode("").has_value());
  EXPECT_FALSE(distrib::LeaseQueue::decode("not json").has_value());
  EXPECT_FALSE(distrib::LeaseQueue::decode("{\"v\":2,\"op\":\"lease\"}").has_value());
  EXPECT_FALSE(distrib::LeaseQueue::decode("{\"v\":1,\"op\":\"evict\",\"key\":\"01\"}")
                   .has_value());
  distrib::LeaseRecord rec;
  rec.key = 7;
  const std::string line = distrib::LeaseQueue::encode(rec);
  EXPECT_TRUE(distrib::LeaseQueue::decode(line).has_value());
  EXPECT_FALSE(
      distrib::LeaseQueue::decode(line.substr(0, line.size() / 2)).has_value());
}

// ---- lease queue semantics -------------------------------------------------

TEST(LeaseQueue, AcquireCompleteDrainsInKeyOrder) {
  const std::string dir = fresh_dir("queue_basic");
  std::filesystem::create_directories(dir);
  distrib::LeaseQueue q(dir + "/leases.jsonl", {10, 20, 30});
  ASSERT_TRUE(q.open());
  EXPECT_EQ(q.size(), 3u);
  EXPECT_FALSE(q.drained());

  // One-cell rows: each acquire takes the next claimable key.
  const auto first = q.acquire(111, 60.0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].key, 10u);
  EXPECT_EQ(first[0].index, 0u);
  EXPECT_EQ(first[0].gen, 0);
  const auto second = q.acquire(111, 60.0);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].key, 20u);
  EXPECT_EQ(second[0].index, 1u);
  // Unexpired leases are not re-granted, even to the same owner.
  const auto third = q.acquire(111, 60.0);  // only key 30 left
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].key, 30u);
  EXPECT_TRUE(q.acquire(111, 60.0).empty());
  EXPECT_TRUE(q.acquire(222, 60.0).empty());

  EXPECT_TRUE(q.complete({10}, 111));
  EXPECT_TRUE(q.complete({20}, 111));
  EXPECT_TRUE(q.complete({30}, 111));
  EXPECT_TRUE(q.drained());
  EXPECT_EQ(q.done_count(), 3u);
  EXPECT_TRUE(q.acquire(111, 60.0).empty());
}

TEST(LeaseQueue, ExpiredLeasesAreReGrantedWithBumpedGeneration) {
  const std::string dir = fresh_dir("queue_expiry");
  std::filesystem::create_directories(dir);
  distrib::LeaseQueue q(dir + "/leases.jsonl", {1, 2}, 2);  // one row
  ASSERT_TRUE(q.open());
  // A lease that expires immediately is claimable by someone else, at
  // the next generation — the re-leased cell sees the next
  // deterministic crash decision.
  ASSERT_EQ(q.acquire(111, -1.0).size(), 2u);
  EXPECT_EQ(q.expired_leases(distrib::LeaseQueue::now()).size(), 2u);
  const auto again = q.acquire(222, 60.0);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].gen, 1);
  EXPECT_EQ(again[1].gen, 1);
  EXPECT_TRUE(q.expired_leases(distrib::LeaseQueue::now()).empty());
}

TEST(LeaseQueue, ReleaseOwnerReturnsOnlyThatOwnersLeases) {
  const std::string dir = fresh_dir("queue_release");
  std::filesystem::create_directories(dir);
  distrib::LeaseQueue q(dir + "/leases.jsonl", {1, 2, 3});
  ASSERT_TRUE(q.open());
  ASSERT_EQ(q.acquire(111, 60.0).size(), 1u);
  ASSERT_EQ(q.acquire(111, 60.0).size(), 1u);
  ASSERT_EQ(q.acquire(222, 60.0).size(), 1u);
  EXPECT_EQ(q.release_owner(111), 2u);
  // Released cells re-lease at the next generation; 222's lease holds.
  const auto re = q.acquire(333, 60.0);
  ASSERT_EQ(re.size(), 1u);
  EXPECT_EQ(re[0].key, 1u);
  EXPECT_EQ(re[0].gen, 1);
  ASSERT_EQ(q.acquire(333, 60.0).size(), 1u);
  EXPECT_TRUE(q.acquire(333, 60.0).empty());
  // A stale release from the dead owner cannot clobber the new lease.
  EXPECT_FALSE(q.release(1, 111));
  EXPECT_EQ(q.active_leases().size(), 3u);
}

TEST(LeaseQueue, ReopenUndoesDoneForResume) {
  const std::string dir = fresh_dir("queue_reopen");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/leases.jsonl";
  distrib::LeaseQueue q(path, {5, 6, 7}, 3);  // one row of three
  ASSERT_TRUE(q.open());
  ASSERT_EQ(q.acquire(111, 60.0).size(), 3u);
  ASSERT_TRUE(q.complete({5, 6, 7}, 111));
  EXPECT_TRUE(q.drained());
  // A batch naming an unknown key writes nothing.
  const auto before = std::filesystem::file_size(path);
  EXPECT_FALSE(q.reopen({5, 99}));
  EXPECT_EQ(std::filesystem::file_size(path), before);
  EXPECT_TRUE(q.done(5));
  // A resume pass reopens all its cells in one call: one line per key.
  EXPECT_TRUE(q.reopen({5, 7}));
  EXPECT_FALSE(q.drained());
  EXPECT_EQ(q.done_count(), 1u);
  EXPECT_TRUE(q.done(6));
  std::ifstream log(path);
  std::size_t reopens = 0;
  for (std::string line; std::getline(log, line);) {
    const auto rec = distrib::LeaseQueue::decode(line);
    ASSERT_TRUE(rec.has_value()) << line;
    if (rec->op == distrib::LeaseRecord::Op::Reopen) ++reopens;
  }
  EXPECT_EQ(reopens, 2u);
  const auto again = q.acquire(222, 60.0);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].key, 5u);
  EXPECT_EQ(again[0].gen, 1);
  EXPECT_EQ(again[1].key, 7u);
  EXPECT_EQ(again[1].gen, 1);
}

TEST(LeaseQueue, StateIsDurableAcrossReopenAndToleratesTornTail) {
  const std::string dir = fresh_dir("queue_durable");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/leases.jsonl";
  {
    distrib::LeaseQueue q(path, {1, 2});
    ASSERT_TRUE(q.open());
    ASSERT_EQ(q.acquire(111, 3600.0).size(), 1u);
    ASSERT_TRUE(q.complete({1}, 111));
  }
  // A writer died mid-append: torn tail, no newline.
  {
    std::ofstream f(path, std::ios::app);
    f << "{\"v\":1,\"op\":\"lea";
  }
  distrib::LeaseQueue q(path, {1, 2});
  ASSERT_TRUE(q.open());
  EXPECT_TRUE(q.done(1));
  EXPECT_FALSE(q.done(2));
  // The next append terminates the torn tail; replaying the log again
  // still works and the torn fragment decodes to nothing.
  ASSERT_EQ(q.acquire(222, 3600.0).size(), 1u);
  distrib::LeaseQueue replay(path, {1, 2});
  ASSERT_TRUE(replay.open());
  EXPECT_TRUE(replay.done(1));
  EXPECT_EQ(replay.active_leases().size(), 1u);
  EXPECT_EQ(replay.active_leases()[0].owner, 222);
}

TEST(LeaseQueue, UnknownKeysInLogAreIgnored) {
  const std::string dir = fresh_dir("queue_stale");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/leases.jsonl";
  {
    // A previous run with a different configuration (different keys).
    distrib::LeaseQueue q(path, {77});
    ASSERT_TRUE(q.open());
    ASSERT_EQ(q.acquire(1, 3600.0).size(), 1u);
    ASSERT_TRUE(q.complete({77}, 1));
  }
  distrib::LeaseQueue q(path, {88});
  ASSERT_TRUE(q.open());
  EXPECT_FALSE(q.drained());
  EXPECT_EQ(q.done_count(), 0u);
  ASSERT_EQ(q.acquire(2, 3600.0).size(), 1u);
}

/// Lines of a lease log, in file order.
std::vector<std::string> log_lines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream f(path);
  for (std::string line; std::getline(f, line);) out.push_back(line);
  return out;
}

TEST(LeaseQueue, RowAcquireTakesTheClaimableCellsOfTheFirstOpenRow) {
  const std::string dir = fresh_dir("queue_rows");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/leases.jsonl";
  std::vector<std::uint64_t> keys;  // three rows of five: 100..114
  for (std::uint64_t k = 100; k < 115; ++k) keys.push_back(k);
  distrib::LeaseQueue q(path, keys, 5);
  ASSERT_TRUE(q.open());

  const auto row0 = q.acquire(111, 60.0);
  ASSERT_EQ(row0.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(row0[i].key, 100 + i);
    EXPECT_EQ(row0[i].index, i);
    EXPECT_EQ(row0[i].gen, 0);
  }
  ASSERT_TRUE(q.complete({100, 101, 102, 103, 104}, 111));

  // Other processes' records on row 1, written cell by cell: 106 done,
  // 108 under a valid lease, 109 under an expired one.
  {
    const double now = distrib::LeaseQueue::now();
    using Op = distrib::LeaseRecord::Op;
    std::ofstream f(path, std::ios::app);
    for (const distrib::LeaseRecord& rec :
         {distrib::LeaseRecord{Op::Lease, 106, 222, 0, now + 60},
          distrib::LeaseRecord{Op::Done, 106, 222, 0, 0},
          distrib::LeaseRecord{Op::Lease, 108, 333, 0, now + 3600},
          distrib::LeaseRecord{Op::Lease, 109, 444, 0, now - 1}})
      f << distrib::LeaseQueue::encode(rec) << "\n";
  }
  // acquire() takes exactly row 1's claimable cells, never row 2's.
  const auto row1 = q.acquire(555, 60.0);
  ASSERT_EQ(row1.size(), 3u);
  EXPECT_EQ(row1[0].key, 105u);
  EXPECT_EQ(row1[0].index, 5u);
  EXPECT_EQ(row1[0].gen, 0);
  EXPECT_EQ(row1[1].key, 107u);
  EXPECT_EQ(row1[1].gen, 0);
  EXPECT_EQ(row1[2].key, 109u);
  EXPECT_EQ(row1[2].gen, 1);  // re-granted after the expired lease
  // Row 1 has nothing claimable left, so the next row is row 2.
  const auto row2 = q.acquire(555, 60.0);
  ASSERT_EQ(row2.size(), 5u);
  EXPECT_EQ(row2.front().key, 110u);
  EXPECT_EQ(row2.back().key, 114u);
  EXPECT_TRUE(q.acquire(666, 60.0).empty());

  // A multi-key complete adds one done line per key, together at the
  // end of the log; an unknown key makes it write nothing.
  const std::size_t before = log_lines(path).size();
  EXPECT_FALSE(q.complete({105, 999}, 555));
  EXPECT_EQ(log_lines(path).size(), before);
  ASSERT_TRUE(q.complete({105, 107, 109}, 555));
  const auto lines = log_lines(path);
  ASSERT_EQ(lines.size(), before + 3);
  const std::uint64_t done_keys[] = {105, 107, 109};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto rec = distrib::LeaseQueue::decode(lines[before + i]);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->op, distrib::LeaseRecord::Op::Done);
    EXPECT_EQ(rec->key, done_keys[i]);
    EXPECT_EQ(rec->owner, 555);
    EXPECT_TRUE(q.done(done_keys[i]));
  }
  EXPECT_EQ(q.done_count(), 9u);  // row 0, 106, and the three above
}

TEST(LeaseQueue, ForkedChildAdoptsTheParentsReplayedQueue) {
  const std::string dir = fresh_dir("queue_fork");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/leases.jsonl";
  std::vector<std::uint64_t> keys;  // three rows of five: 200..214
  for (std::uint64_t k = 200; k < 215; ++k) keys.push_back(k);
  distrib::LeaseQueue q(path, keys, 5);
  ASSERT_TRUE(q.open());
  const int self = exec::current_pid();
  ASSERT_EQ(q.acquire(self, 60.0).size(), 5u);
  ASSERT_TRUE(q.complete({200, 201, 202, 203, 204}, self));
  const auto held = q.acquire(self, 60.0);
  ASSERT_EQ(held.size(), 5u);

  // The child leases only what the parent neither finished nor holds.
  const int pid = exec::spawn_process([&q] {
    if (!q.reopen_after_fork()) return 2;
    const auto got = q.acquire(exec::current_pid(), 60.0);
    if (got.size() != 5) return 3;
    for (std::size_t i = 0; i < got.size(); ++i)
      if (got[i].key != 210 + i || got[i].gen != 0) return 4;
    return 0;
  });
  ASSERT_GT(pid, 0);
  const auto ex = exec::reap(pid);
  ASSERT_TRUE(ex.has_value());
  EXPECT_TRUE(ex->clean()) << ex->describe();

  // The child's leases reached the shared log under its pid, and the
  // parent's own descriptor still works after the child closed its copy.
  q.poll();
  std::size_t childs = 0;
  for (const auto& l : q.active_leases()) {
    if (l.owner == pid) {
      EXPECT_GE(l.key, 210u);
      ++childs;
    }
  }
  EXPECT_EQ(childs, 5u);
  EXPECT_TRUE(q.complete({205, 206, 207, 208, 209}, self));
  EXPECT_EQ(q.done_count(), 10u);
}

// ---- supervisor: clean runs ------------------------------------------------

TEST(Supervisor, CleanRunsAreByteIdenticalAcrossProcsAndJobs) {
  const auto suite = small_suite();
  const auto base = small_options();
  const std::string clean_csv =
      report::render_csv(clean_single_process(base, suite));
  for (const int procs : {1, 2, 4}) {
    for (const int jobs : {1, 2}) {
      distrib::SupervisorOptions sopt;
      sopt.study = base;
      sopt.study.jobs = jobs;
      sopt.procs = procs;
      sopt.shard_dir = fresh_dir("clean_p" + std::to_string(procs) + "_j" +
                                 std::to_string(jobs));
      distrib::Supervisor sup(std::move(sopt));
      const auto t = sup.run_suite(suite);
      EXPECT_EQ(report::render_csv(t), clean_csv)
          << "procs=" << procs << " jobs=" << jobs;
      EXPECT_EQ(sup.stats().reduce.missing, 0u);
      EXPECT_EQ(sup.stats().worker_respawns, 0);
      EXPECT_GE(sup.stats().workers_spawned, 1);
    }
  }
}

TEST(Supervisor, EmitsWorkerLifecycleEvents) {
  const auto suite = small_suite();
  exec::CollectingSink sink;
  distrib::SupervisorOptions sopt;
  sopt.study = small_options();
  sopt.study.sink = &sink;
  sopt.procs = 2;
  sopt.shard_dir = fresh_dir("events");
  distrib::Supervisor sup(std::move(sopt));
  (void)sup.run_suite(suite);
  const auto spawned = static_cast<std::uint64_t>(sup.stats().workers_spawned);
  EXPECT_EQ(sink.count(exec::EventKind::WorkerSpawned), spawned);
  // Every spawned worker is eventually reaped and reported.
  EXPECT_EQ(sink.count(exec::EventKind::WorkerExited), spawned);
}

// ---- supervisor: injected crash faults -------------------------------------

TEST(Supervisor, InjectedCrashFaultsConvergeToTheCleanTable) {
  const auto suite = small_suite();
  auto base = small_options();
  const std::string clean_csv =
      report::render_csv(clean_single_process(base, suite));
  base.faults.crash = 0.2;
  // One thread per worker, then two, each leasing its own row: a crash
  // kills the rows both threads hold.
  for (const int jobs : {1, 2}) {
    exec::CollectingSink sink;
    distrib::SupervisorOptions sopt;
    sopt.study = base;
    sopt.study.sink = &sink;
    sopt.study.jobs = jobs;
    sopt.procs = 3;
    sopt.shard_dir = fresh_dir("crash_inject_j" + std::to_string(jobs));
    sopt.lease_deadline_seconds = 20;
    distrib::Supervisor sup(std::move(sopt));
    const auto t = sup.run_suite(suite);
    // Workers really died (exit 139 via _exit) and were re-leased; the
    // re-leased generation skips the injected crash decision, so the
    // merged table is the clean one, byte for byte.
    EXPECT_EQ(report::render_csv(t), clean_csv) << "jobs=" << jobs;
    EXPECT_GT(sup.stats().worker_respawns, 0) << "jobs=" << jobs;
    EXPECT_GT(sup.stats().cells_released, 0u) << "jobs=" << jobs;
    EXPECT_GT(sink.count(exec::EventKind::WorkerRespawned), 0u)
        << "jobs=" << jobs;
    EXPECT_GT(sink.count(exec::EventKind::CellReleased), 0u)
        << "jobs=" << jobs;
    // Crashed workers left torn shard lines behind; the reducer loaded
    // the shards anyway.
    EXPECT_EQ(sup.stats().reduce.missing, 0u) << "jobs=" << jobs;
  }
}

TEST(Supervisor, ExhaustedRespawnBudgetDegradesToInlineDrain) {
  // At crash:0.5 a row of five cells survives a lease generation with
  // probability 1/32, so a worker dies at about 31 generations of each
  // row before one completes it.  Two workers and their 4 + 3 * 2
  // replacements afford 12 deaths.  The crash decisions are
  // deterministic, so count the deaths the 8 rows need: more than the
  // fleet affords makes degradation certain, not likely.
  const auto suite = small_suite();
  auto base = small_options();
  const std::string clean_csv =
      report::render_csv(clean_single_process(base, suite));
  base.faults.crash = 0.5;
  const int procs = 2;
  const int respawn_budget = 4 + 3 * procs;
  int deaths_needed = 0;
  for (const auto& bench : suite) {
    const auto row_crashes = [&](int gen) {
      return std::any_of(base.compilers.begin(), base.compilers.end(),
                         [&](const compilers::CompilerSpec& spec) {
                           return base.faults.crashes(base.seed, bench.name(),
                                                      spec.name, gen);
                         });
    };
    int gen = 0;
    while (row_crashes(gen)) ++gen;
    deaths_needed += gen;
  }
  ASSERT_GT(deaths_needed, procs + respawn_budget);
  distrib::SupervisorOptions sopt;
  sopt.study = base;
  sopt.procs = procs;
  const std::string dir = fresh_dir("degraded");
  sopt.shard_dir = dir;
  distrib::Supervisor sup(std::move(sopt));
  const auto t = sup.run_suite(suite);
  EXPECT_EQ(report::render_csv(t), clean_csv);
  EXPECT_TRUE(sup.stats().degraded);
  EXPECT_GT(sup.stats().inline_cells, 0u);
  EXPECT_EQ(sup.stats().worker_respawns, respawn_budget);
  EXPECT_EQ(sup.stats().reduce.missing, 0u);
  // The inline drain's shard is what the status read shows of it.
  const auto st = distrib::read_status(dir, distrib::cell_keys(suite, base));
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->phase, "done");
  EXPECT_GE(st->inline_shards, 1u);
}

// ---- supervisor: real kill -9 ----------------------------------------------

/// The kill -9 fault injector: a thread that polls the lease log and
/// SIGKILLs one worker mid-study — a worker that has finished at least
/// one cell (so it has left results and spans behind) and still holds a
/// lease (so it dies holding the row it was evaluating).  It reads and
/// kills under the log's flock, so no worker can complete or take a
/// lease meanwhile.  A worker idle between rows, or waiting for the last
/// cells, holds none and would leave nothing to release.
class Kill9Watcher {
 public:
  explicit Kill9Watcher(std::string lease_path)
      : thread_([this, path = std::move(lease_path)] { watch(path); }) {}
  ~Kill9Watcher() { stop(); }
  Kill9Watcher(const Kill9Watcher&) = delete;
  Kill9Watcher& operator=(const Kill9Watcher&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] bool killed() const { return killed_.load(); }

 private:
  void watch(const std::string& path) {
    const int self = exec::current_pid();
    std::map<std::uint64_t, int> holder;  // cell key -> lease owner
    std::set<int> finished;               // owners with a done cell
    std::uint64_t offset = 0;             // log bytes replayed so far
    while (!stop_.load() && !killed_.load()) {
      const int fd = ::open(path.c_str(), O_RDONLY);
      if (fd >= 0 && ::flock(fd, LOCK_EX) == 0) {
        // Replay only the complete lines appended since the last poll.
        std::string tail;
        char buf[1 << 16];
        ssize_t got = 0;
        while ((got = ::pread(fd, buf, sizeof buf,
                              static_cast<off_t>(offset + tail.size()))) > 0)
          tail.append(buf, static_cast<std::size_t>(got));
        std::size_t start = 0;
        for (std::size_t nl = tail.find('\n'); nl != std::string::npos;
             start = nl + 1, nl = tail.find('\n', start)) {
          const auto rec =
              distrib::LeaseQueue::decode(tail.substr(start, nl - start));
          if (!rec) continue;
          if (rec->op == distrib::LeaseRecord::Op::Lease) {
            holder[rec->key] = rec->owner;
          } else {
            if (rec->op == distrib::LeaseRecord::Op::Done)
              finished.insert(rec->owner);
            holder.erase(rec->key);
          }
        }
        offset += start;
        for (const auto& [key, owner] : holder) {
          if (owner == self || owner <= 0 || finished.count(owner) == 0)
            continue;
          if (exec::kill_process(owner)) {
            killed_.store(true);
            break;
          }
        }
        ::flock(fd, LOCK_UN);
      }
      if (fd >= 0) ::close(fd);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  std::atomic<bool> killed_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(Supervisor, Kill9MidStudyYieldsByteIdenticalTable) {
  // The acceptance criterion, with a real SIGKILL: a watcher thread
  // reads leases.jsonl until a worker holds a live lease, kill -9s it
  // mid-cell, and the supervisor re-leases + respawns its way to a
  // table byte-identical to the clean single-process run.
  const auto suite = kernels::all_benchmarks(0.05);  // 540 cells, 108 rows
  const auto base = small_options();
  const std::string clean_csv =
      report::render_csv(clean_single_process(base, suite));
  const std::string dir = fresh_dir("kill9");
  Kill9Watcher killer(dir + "/leases.jsonl");

  distrib::SupervisorOptions sopt;
  sopt.study = base;
  sopt.procs = 2;
  sopt.shard_dir = dir;
  sopt.lease_deadline_seconds = 20;
  distrib::Supervisor sup(std::move(sopt));
  const auto t = sup.run_suite(suite);
  killer.stop();

  ASSERT_TRUE(killer.killed()) << "watcher never saw a live worker to kill";
  EXPECT_EQ(report::render_csv(t), clean_csv);
  EXPECT_GE(sup.stats().worker_respawns, 1);
  EXPECT_GE(sup.stats().cells_released, 1u);
  EXPECT_EQ(sup.stats().reduce.missing, 0u);
}

// ---- supervisor: resume ----------------------------------------------------

/// Rewrite every result shard in `dir` line by line through `edit`.
void edit_shard_lines(const std::string& dir,
                      const std::function<void(std::string&)>& edit) {
  for (const auto& path : distrib::Reducer::shard_files(dir)) {
    std::ifstream in(path);
    std::ostringstream out;
    for (std::string line; std::getline(in, line);) {
      edit(line);
      out << line << "\n";
    }
    in.close();
    std::ofstream(path, std::ios::trunc) << out.str();
  }
}

TEST(Supervisor, ResumeOverCompletedShardDirReEvaluatesNothing) {
  const auto suite = small_suite();
  const auto base = small_options();
  const std::string dir = fresh_dir("resume");
  report::Table first;
  {
    distrib::SupervisorOptions sopt;
    sopt.study = base;
    sopt.procs = 2;
    sopt.shard_dir = dir;
    distrib::Supervisor sup(std::move(sopt));
    first = sup.run_suite(suite);
  }
  // Every cell is done and none crashed: its quirk failures (CE/RE)
  // are pure functions of their cells, so they restore like the valid
  // cells.  The pass reopens nothing, forks no worker and writes no
  // file.
  std::size_t failed = 0;
  for (const auto& row : first.rows)
    for (const auto& cell : row.cells)
      if (!cell.valid()) ++failed;
  ASSERT_GT(failed, 0u);
  const auto listing = [&dir] {
    std::map<std::string, std::uintmax_t> sizes;
    for (const auto& f : std::filesystem::directory_iterator(dir))
      sizes[f.path().filename().string()] = f.file_size();
    return sizes;
  };
  const auto before = listing();
  distrib::SupervisorOptions sopt;
  sopt.study = base;
  sopt.procs = 2;
  sopt.shard_dir = dir;
  distrib::Supervisor sup(std::move(sopt));
  const auto t = sup.run_suite(suite);
  EXPECT_EQ(report::render_csv(t), report::render_csv(first));
  EXPECT_EQ(sup.stats().reopened_cells, 0u);
  EXPECT_EQ(sup.stats().resumed_cells, suite.size() * 5);
  EXPECT_EQ(sup.stats().workers_spawned, 0);
  EXPECT_EQ(listing(), before);
}

TEST(Supervisor, ResumeReopensARetiredInjectedCompileFault) {
  // Builds before the compile fault kind was retired wrote CE lines for
  // injected compile faults, which a re-run clears.  Such a line must
  // not restore: its cell reopens and re-evaluates to its clean value,
  // and every other cell restores.
  const auto suite = small_suite();
  const auto base = small_options();
  const std::string dir = fresh_dir("resume_retired_fault");
  report::Table clean;
  {
    distrib::SupervisorOptions sopt;
    sopt.study = base;
    sopt.procs = 2;
    sopt.shard_dir = dir;
    distrib::Supervisor sup(std::move(sopt));
    clean = sup.run_suite(suite);
  }
  const auto& cell = clean.rows[0].cells[1];
  ASSERT_TRUE(cell.valid());
  const std::uint64_t key = core::Journal::cell_key(
      base.seed, base.compilers[1], suite[0].fingerprint(), base.apply_quirks);
  core::JournalEntry stale;
  stale.key = key;
  stale.run.benchmark = cell.benchmark;
  stale.run.compiler = cell.compiler;
  stale.run.status = runtime::CellStatus::CompileError;
  stale.run.diagnostic = "injected compile fault (attempt 0)";
  std::size_t replaced = 0;
  edit_shard_lines(dir, [&](std::string& line) {
    const auto e = core::Journal::decode(line);
    if (!e || e->key != key) return;
    line = core::Journal::encode(stale);
    ++replaced;
  });
  ASSERT_EQ(replaced, 1u);

  distrib::SupervisorOptions sopt;
  sopt.study = base;
  sopt.procs = 2;
  sopt.shard_dir = dir;
  distrib::Supervisor sup(std::move(sopt));
  const auto t = sup.run_suite(suite);
  EXPECT_EQ(sup.stats().reopened_cells, 1u);
  EXPECT_EQ(sup.stats().resumed_cells, suite.size() * 5 - 1);
  EXPECT_EQ(report::render_csv(t), report::render_csv(clean));
}

TEST(Supervisor, ResumeOverOlderFormatShardsReEvaluatesEveryCell) {
  // A shard directory whose lines carry the previous format version
  // (measured with the previous noise generator) must not restore a
  // single cell: every done cell reopens, and the table equals a fresh
  // run's.
  const auto suite = small_suite();
  const auto base = small_options();
  const std::string dir = fresh_dir("resume_v2");
  report::Table fresh;
  {
    distrib::SupervisorOptions sopt;
    sopt.study = base;
    sopt.procs = 2;
    sopt.shard_dir = dir;
    distrib::Supervisor sup(std::move(sopt));
    fresh = sup.run_suite(suite);
  }
  char cur[16];
  std::snprintf(cur, sizeof cur, "{\"v\":%d,", core::kJournalFormatVersion);
  std::size_t rewritten = 0;
  edit_shard_lines(dir, [&](std::string& line) {
    ASSERT_EQ(line.rfind(cur, 0), 0u) << line;
    line = "{\"v\":2," + line.substr(std::strlen(cur));
    ++rewritten;
  });
  const std::size_t cells = suite.size() * base.compilers.size();
  ASSERT_EQ(rewritten, cells);

  distrib::SupervisorOptions sopt;
  sopt.study = base;
  sopt.procs = 2;
  sopt.shard_dir = dir;
  distrib::Supervisor sup(std::move(sopt));
  const auto t = sup.run_suite(suite);
  EXPECT_EQ(sup.stats().resumed_cells, 0u);
  EXPECT_EQ(sup.stats().reopened_cells, cells);
  EXPECT_EQ(sup.stats().reduce.missing, 0u);
  EXPECT_EQ(report::render_csv(t), report::render_csv(fresh));
  EXPECT_EQ(report::render_csv(t),
            report::render_csv(clean_single_process(base, suite)));
}

TEST(Supervisor, ResumedOutcomesSupersedeStaleFailuresAtAnyProcs) {
  // A first pass where every generation crashes: the workers die until
  // the respawn budget is spent, and the inline drain records every
  // remaining cell as XX.  A resume pass without faults reopens exactly
  // those and re-evaluates them.  Its shards must sort after the first
  // pass's: the merge keeps the last line for a key in file order, and
  // a new valid line must never lose to its stale failure.
  const auto suite = kernels::microkernel_suite(0.05);  // 110 cells
  auto base = small_options();
  base.seed = 7;
  const std::string clean_csv =
      report::render_csv(clean_single_process(base, suite));
  for (const int procs : {2, 3, 4}) {
    const std::string dir = fresh_dir("stale_p" + std::to_string(procs));
    report::Table resumed;
    std::size_t crashed = 0;
    for (int pass = 0; pass < 2; ++pass) {
      distrib::SupervisorOptions sopt;
      sopt.study = base;
      sopt.study.faults.crash = pass == 0 ? 1.0 : 0.0;
      sopt.procs = procs;
      sopt.shard_dir = dir;
      distrib::Supervisor sup(std::move(sopt));
      resumed = sup.run_suite(suite);
      if (pass == 0) {
        EXPECT_TRUE(sup.stats().degraded) << "procs=" << procs;
        EXPECT_GT(sup.stats().inline_cells, 0u) << "procs=" << procs;
        // Every cell failed: quirk failures as before, the rest as XX.
        std::size_t failed = 0;
        for (const auto& row : resumed.rows)
          for (const auto& cell : row.cells) {
            failed += !cell.valid();
            crashed += cell.status == runtime::CellStatus::Crashed;
          }
        EXPECT_EQ(failed, suite.size() * 5) << "procs=" << procs;
        EXPECT_GT(crashed, 0u) << "procs=" << procs;
      } else {
        EXPECT_EQ(sup.stats().reopened_cells, crashed) << "procs=" << procs;
        EXPECT_EQ(sup.stats().resumed_cells, suite.size() * 5 - crashed)
            << "procs=" << procs;
      }
    }
    std::map<std::string, bool> has_valid_line;  // "bench/compiler"
    for (const auto& path : distrib::Reducer::shard_files(dir)) {
      std::ifstream f(path);
      for (std::string line; std::getline(f, line);) {
        const auto e = core::Journal::decode(line);
        if (e && e->run.valid())
          has_valid_line[e->run.benchmark + "/" + e->run.compiler] = true;
      }
    }
    std::size_t stale = 0;
    for (const auto& row : resumed.rows)
      for (const auto& cell : row.cells)
        if (!cell.valid() &&
            has_valid_line.count(cell.benchmark + "/" + cell.compiler) > 0)
          ++stale;
    EXPECT_EQ(stale, 0u) << "procs=" << procs;
    EXPECT_EQ(report::render_csv(resumed), clean_csv) << "procs=" << procs;
  }
}

TEST(Supervisor, ResumePassReducesAsAFreshMergeOfTheDirectory) {
  // A resume pass loads the earlier passes' shards once, for its resume
  // decision, and at reduce time adds only the shards it wrote.  Its
  // reduce stats must still be a merge of the whole directory's: every
  // shard, every distinct cell and every duplicate line — here the
  // shards of a first pass where every generation crashes, and the new
  // outcomes of the XX cells the resume reopens.
  const auto suite = small_suite();
  const auto base = small_options();
  const std::string clean_csv =
      report::render_csv(clean_single_process(base, suite));
  const std::string dir = fresh_dir("resume_reduce_stats");
  for (int pass = 0; pass < 2; ++pass) {
    distrib::SupervisorOptions sopt;
    sopt.study = base;
    sopt.study.faults.crash = pass == 0 ? 1.0 : 0.0;
    sopt.procs = 3;
    sopt.shard_dir = dir;
    sopt.lease_deadline_seconds = 20;
    distrib::Supervisor sup(std::move(sopt));
    const auto t = sup.run_suite(suite);
    if (pass == 0) {
      EXPECT_GT(sup.stats().worker_respawns, 0);
      EXPECT_NE(report::render_csv(t), clean_csv);
      continue;
    }
    EXPECT_EQ(report::render_csv(t), clean_csv);
    EXPECT_GT(sup.stats().reopened_cells, 0u);
    const distrib::ReduceStats& got = sup.stats().reduce;
    distrib::ReduceStats want;
    (void)distrib::Reducer::merge(dir, suite, base, &want);
    EXPECT_GT(want.shards,
              static_cast<std::size_t>(sup.stats().workers_spawned));
    EXPECT_GT(want.duplicates, 0u);
    EXPECT_EQ(got.shards, want.shards);
    EXPECT_EQ(got.entries, want.entries);
    EXPECT_EQ(got.duplicates, want.duplicates);
    EXPECT_EQ(got.missing, want.missing);
  }
}

TEST(Supervisor, ShardDirHoldsOnlyTheLeaseLogAndShards) {
  // The lease log and the shards are all a study writes: no status
  // document or other side file, after a fresh pass and after a resume
  // pass, with telemetry off and on.
  const auto suite = small_suite();
  for (const bool telemetry : {false, true}) {
    const std::string dir = fresh_dir(telemetry ? "files_telemetry" : "files");
    for (int pass = 0; pass < 2; ++pass) {
      distrib::SupervisorOptions sopt;
      sopt.study = small_options();
      sopt.procs = 2;
      sopt.shard_dir = dir;
      sopt.telemetry = telemetry;
      distrib::Supervisor sup(std::move(sopt));
      (void)sup.run_suite(suite);
      std::size_t shards = 0;
      std::vector<std::string> other;
      for (const auto& f : std::filesystem::directory_iterator(dir)) {
        const std::string name = f.path().filename().string();
        const bool jsonl = name.ends_with(".jsonl");
        if (jsonl && name.starts_with("shard-")) {
          ++shards;
        } else if (name != "leases.jsonl" &&
                   !(telemetry && jsonl &&
                     (name.starts_with("trace-shard-") ||
                      name.starts_with("metrics-shard-")))) {
          other.push_back(name);
        }
      }
      const std::string run = "telemetry=" + std::to_string(telemetry) +
                              " pass " + std::to_string(pass);
      EXPECT_GE(shards, 1u) << run;
      EXPECT_TRUE(std::filesystem::exists(dir + "/leases.jsonl")) << run;
      EXPECT_EQ(other, std::vector<std::string>{}) << run;
    }
  }
}

// ---- reducer ---------------------------------------------------------------

TEST(Reducer, MergesMixedShardsTornTailsAndDuplicates) {
  // One merge over: a current-format shard with a torn tail, a shard of
  // older-format lines (v1 untagged, v2 tagged — skipped, their noise
  // is not this build's), an empty shard, and a duplicate key across
  // files (last shard wins, in sorted filename order).
  const std::string dir = fresh_dir("mixed_merge");
  std::filesystem::create_directories(dir);
  core::JournalEntry a;
  a.key = 1;
  a.run.benchmark = "k1";
  a.run.compiler = "GNU";
  a.run.status = runtime::CellStatus::RuntimeError;
  a.run.diagnostic = "from shard-a";
  {
    std::ofstream f(dir + "/shard-0000.jsonl");
    f << core::Journal::encode(a) << "\n";
    f << core::Journal::encode(a).substr(0, 25);  // torn tail
  }
  {
    // v1 line (no "v" tag) and v2 line: both skipped by the version gate.
    std::ofstream f(dir + "/shard-0001.jsonl");
    f << "{\"key\":\"0000000000000002\",\"benchmark\":\"k2\","
         "\"compiler\":\"LLVM\",\"status\":\"crash\","
         "\"diagnostic\":\"legacy\"}\n";
    f << "{\"v\":2,\"key\":\"0000000000000003\",\"benchmark\":\"k3\","
         "\"compiler\":\"LLVM\",\"status\":\"crash\","
         "\"diagnostic\":\"legacy\"}\n";
  }
  { std::ofstream f(dir + "/shard-0002.jsonl"); }  // empty (fresh worker)
  {
    core::JournalEntry later = a;
    later.run.diagnostic = "from shard-0003, wins";
    std::ofstream f(dir + "/shard-0003.jsonl");
    f << core::Journal::encode(later) << "\n";
  }
  {
    std::ofstream f(dir + "/not-a-shard.txt");
    f << "ignored\n";
  }

  core::Journal j;
  distrib::ReduceStats stats;
  EXPECT_EQ(distrib::Reducer::load_shards(dir, j, &stats), 1u);
  EXPECT_EQ(stats.shards, 4u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.duplicates, 1u);
  ASSERT_NE(j.find(1), nullptr);
  EXPECT_EQ(j.find(1)->diagnostic, "from shard-0003, wins");
  EXPECT_EQ(j.find(2), nullptr);
  EXPECT_EQ(j.find(3), nullptr);
}

TEST(Reducer, LoadNewShardsAddsOnlyNewFilesAndRefusesChangedOnes) {
  const std::string dir = fresh_dir("load_new_shards");
  std::filesystem::create_directories(dir);
  const auto entry = [](std::uint64_t key, const char* diagnostic) {
    core::JournalEntry e;
    e.key = key;
    e.run.benchmark = "k1";
    e.run.compiler = "GNU";
    e.run.status = runtime::CellStatus::RuntimeError;
    e.run.diagnostic = diagnostic;
    return core::Journal::encode(e) + "\n";
  };
  std::ofstream(dir + "/shard-0000.jsonl") << entry(1, "a") << entry(2, "a");
  std::ofstream(dir + "/shard-0001.jsonl") << entry(2, "b");
  core::Journal j;
  std::vector<distrib::LoadedShard> loaded;
  distrib::ReduceStats stats;
  ASSERT_TRUE(distrib::Reducer::load_new_shards(dir, j, loaded, &stats));
  EXPECT_EQ(loaded.size(), 2u);
  // A later pass's shard sorts after them: only it loads.
  std::ofstream(dir + "/shard-0002-inline.jsonl") << entry(1, "c")
                                                  << entry(3, "c");
  ASSERT_TRUE(distrib::Reducer::load_new_shards(dir, j, loaded, &stats));
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(j.find(1)->diagnostic, "c");
  EXPECT_EQ(j.find(2)->diagnostic, "b");
  core::Journal fresh;
  distrib::ReduceStats want;
  EXPECT_EQ(distrib::Reducer::load_shards(dir, fresh, &want), 3u);
  EXPECT_EQ(stats.shards, want.shards);
  EXPECT_EQ(stats.entries, want.entries);
  EXPECT_EQ(stats.duplicates, want.duplicates);
  // A listed shard that grew since it loaded, or a new shard that sorts
  // before a listed one, cannot be added incrementally: nothing loads.
  std::ofstream(dir + "/shard-0001.jsonl", std::ios::app) << entry(4, "d");
  EXPECT_FALSE(distrib::Reducer::load_new_shards(dir, j, loaded, &stats));
  EXPECT_EQ(j.find(4), nullptr);
  EXPECT_EQ(stats.shards, want.shards);
  std::vector<distrib::LoadedShard> without_first(loaded.begin() + 1,
                                                  loaded.end());
  EXPECT_FALSE(
      distrib::Reducer::load_new_shards(dir, j, without_first, &stats));
}

TEST(Reducer, MissingCellsSurfaceAsCrashedNotBlank) {
  const auto suite = small_suite();
  const auto opt = small_options();
  const std::string dir = fresh_dir("missing_cells");
  std::filesystem::create_directories(dir);
  { std::ofstream f(dir + "/shard-0000.jsonl"); }  // no outcomes at all
  distrib::ReduceStats stats;
  const auto t = distrib::Reducer::merge(dir, suite, opt, &stats);
  EXPECT_EQ(stats.missing, suite.size() * opt.compilers.size());
  for (const auto& row : t.rows)
    for (const auto& cell : row.cells) {
      EXPECT_EQ(cell.status, runtime::CellStatus::Crashed);
      EXPECT_NE(cell.diagnostic.find("missing"), std::string::npos);
    }
}

TEST(Reducer, ShardOutputMatchesSingleProcessJournal) {
  // A 1-proc supervisor run's shards, merged by a Reducer of their own,
  // equal the table the supervisor returned.
  const auto suite = small_suite();
  const auto base = small_options();
  const std::string dir = fresh_dir("shard_vs_journal");
  distrib::SupervisorOptions sopt;
  sopt.study = base;
  sopt.procs = 1;
  sopt.shard_dir = dir;
  distrib::Supervisor sup(std::move(sopt));
  const auto direct = sup.run_suite(suite);
  distrib::ReduceStats stats;
  const auto merged = distrib::Reducer::merge(dir, suite, base, &stats);
  EXPECT_EQ(report::render_csv(direct), report::render_csv(merged));
  EXPECT_EQ(stats.missing, 0u);
}

// ---- telemetry: shards and aggregation ------------------------------------

/// The single-process reference registry for the invariance assertions:
/// what one process observing every cell folds into its MetricsSink.
obs::Registry single_process_registry(
    const core::StudyOptions& opt,
    const std::vector<kernels::Benchmark>& s) {
  obs::MetricsSink sink;
  auto one = opt;
  one.jobs = 1;
  one.sink = &sink;
  (void)core::Study(std::move(one)).run_suite(s);
  return sink.snapshot();
}

/// Every histogram's name and sample count (sums and buckets hold
/// wall-clock, which no two runs share).
std::map<std::string, std::uint64_t> histogram_counts(const obs::Registry& r) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, h] : r.histograms) out[name] = h.count;
  return out;
}

/// Replay one process's merged-trace records the way the Chrome viewer
/// does (the test_obs invariant, per (pid, tid) row): B/E events sorted
/// by sequence must nest stack-wise with monotone timestamps.
void expect_viewer_invariants(const obs::ProcessSpans& p) {
  struct Ev {
    std::uint64_t seq;
    double us;
    bool begin;
    const std::string* name;
  };
  std::map<int, std::vector<Ev>> by_tid;
  for (const auto& r : p.records) {
    by_tid[r.tid].push_back({r.begin_seq, r.begin_us, true, &r.name});
    by_tid[r.tid].push_back({r.end_seq, r.end_us, false, &r.name});
  }
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(),
              [](const Ev& a, const Ev& b) { return a.seq < b.seq; });
    std::vector<const std::string*> stack;
    double last_us = 0;
    for (const auto& ev : evs) {
      EXPECT_GE(ev.us, last_us)
          << "non-monotone timestamp in " << p.name << " tid " << tid;
      last_us = ev.us;
      if (ev.begin) {
        stack.push_back(ev.name);
      } else {
        ASSERT_FALSE(stack.empty())
            << "E without B in " << p.name << " tid " << tid;
        EXPECT_EQ(*stack.back(), *ev.name)
            << "mis-nested span in " << p.name << " tid " << tid;
        stack.pop_back();
      }
    }
    EXPECT_TRUE(stack.empty()) << "unclosed span in " << p.name;
  }
}

TEST(Telemetry, MergedCountersMatchTheSingleProcessRunAcrossProcs) {
  // The determinism contract for telemetry: a shard-merged
  // N-process run has exactly the single-process run's counters, and
  // the same histograms with the same sample counts, no matter how the
  // cells were partitioned.  Workers lease whole benchmark rows, so each
  // row's cells share one process's per-benchmark caches exactly as
  // they do in the single-process run.  This is also the regression
  // test for the old bug where --metrics under --procs silently
  // reported the near-empty parent registry.
  const auto suite = small_suite();
  const std::size_t cells = suite.size() * 5;
  const auto base = small_options();
  const auto ref = single_process_registry(base, suite);
  auto one = base;
  one.jobs = 1;
  const std::string ref_csv =
      report::render_csv(core::Study(std::move(one)).run_suite(suite));
  ASSERT_EQ(ref.counter("jobs_started"), cells);
  ASSERT_EQ(ref.histograms.count("cell_wall_seconds"), 1u);
  for (const int procs : {1, 2, 4}) {
    const std::string run = "procs=" + std::to_string(procs);
    obs::Tracer tracer;
    distrib::SupervisorOptions sopt;
    sopt.study = base;
    sopt.study.tracer = &tracer;
    sopt.telemetry = true;
    sopt.procs = procs;
    sopt.shard_dir = fresh_dir("telemetry_p" + std::to_string(procs));
    distrib::Supervisor sup(std::move(sopt));
    const auto t = sup.run_suite(suite);
    EXPECT_EQ(report::render_csv(t), ref_csv) << run;

    obs::Aggregator agg;
    ASSERT_TRUE(sup.load_telemetry(agg));
    EXPECT_GE(agg.stats().metrics_shards, 1u) << "no metrics shards written";
    EXPECT_GE(agg.stats().trace_shards, 1u) << "no trace shards written";
    EXPECT_GT(agg.stats().spans, 0u);
    EXPECT_EQ(agg.stats().cells, cells);
    const auto merged = agg.merged_registry();
    EXPECT_EQ(merged.counters, ref.counters) << run;
    EXPECT_EQ(histogram_counts(merged), histogram_counts(ref)) << run;
  }
}

TEST(Telemetry, Kill9RunMergesTraceAndCounters) {
  // The acceptance criterion end to end: a kill -9-recovered 4-process
  // run with telemetry yields (a) the byte-identical table, (b) one
  // merged trace whose spans come from several worker pids plus the
  // supervisor lifecycle row and satisfy the Chrome viewer invariants,
  // (c) merged deterministic counters equal to the single-process
  // run's, and (d) a lease log and shards that read back as done.
  const auto suite = kernels::all_benchmarks(0.05);  // 540 cells, 108 rows
  const auto base = small_options();
  const std::string clean_csv =
      report::render_csv(clean_single_process(base, suite));
  const auto ref = single_process_registry(base, suite);
  const std::string dir = fresh_dir("kill9_telemetry");
  Kill9Watcher killer(dir + "/leases.jsonl");

  obs::Tracer tracer;
  distrib::SupervisorOptions sopt;
  sopt.study = base;
  sopt.study.tracer = &tracer;
  sopt.telemetry = true;
  sopt.procs = 4;
  sopt.shard_dir = dir;
  sopt.lease_deadline_seconds = 20;
  distrib::Supervisor sup(std::move(sopt));
  const auto t = sup.run_suite(suite);
  killer.stop();

  ASSERT_TRUE(killer.killed()) << "watcher never saw a live worker to kill";
  EXPECT_EQ(report::render_csv(t), clean_csv);
  EXPECT_GE(sup.stats().worker_respawns, 1);

  obs::Aggregator agg;
  ASSERT_TRUE(sup.load_telemetry(agg));
  // Spans from several worker pids, plus the supervisor lifecycle row
  // (spawned workers, reaps of the killed one, the final reduce).
  std::size_t workers_with_spans = 0;
  const obs::ProcessSpans* supervisor_row = nullptr;
  for (const auto& p : agg.processes()) {
    if (p.name == "supervisor")
      supervisor_row = &p;
    else if (!p.records.empty())
      ++workers_with_spans;
  }
  EXPECT_GE(workers_with_spans, 2u);
  ASSERT_NE(supervisor_row, nullptr);
  ASSERT_FALSE(supervisor_row->records.empty());
  bool saw_spawn = false, saw_reap = false, saw_reduce = false;
  for (const auto& r : supervisor_row->records) {
    if (r.name == "sup:spawn") saw_spawn = true;
    if (r.name == "sup:reap") saw_reap = true;
    if (r.name == "sup:reduce") saw_reduce = true;
  }
  EXPECT_TRUE(saw_spawn);
  EXPECT_TRUE(saw_reap);
  EXPECT_TRUE(saw_reduce);
  // Every process row of the merged trace passes the viewer invariants
  // — including shards of the SIGKILLed worker (its finished spans were
  // streamed to disk before it died).
  for (const auto& p : agg.processes()) expect_viewer_invariants(p);
  const auto json = agg.merged_trace_json();
  EXPECT_NE(json.find("supervisor (pid "), std::string::npos);
  EXPECT_NE(json.find("worker-0000 (pid "), std::string::npos);

  // Merged deterministic counters equal the single-process run's, even
  // though some cells were evaluated twice (dedupe last-wins).
  const auto merged = agg.merged_registry();
  const std::size_t cells = suite.size() * 5;
  EXPECT_EQ(merged.counter("jobs_started"), cells);
  for (const char* name :
       {"jobs_started", "cells_ok", "cells_compile_error",
        "cells_runtime_error", "cells_crashed"})
    EXPECT_EQ(merged.counter(name), ref.counter(name)) << name;
  for (const char* cache : {"compile", "plan", "estimate", "analysis"}) {
    const std::string hits = std::string(cache) + "_cache_hits";
    const std::string misses = std::string(cache) + "_cache_misses";
    EXPECT_EQ(merged.counter(hits) + merged.counter(misses),
              ref.counter(hits) + ref.counter(misses))
        << cache;
  }
  EXPECT_EQ(merged.histograms.at("cell_wall_seconds").count, cells);

  // The lease log and shards read back as a finished study: four
  // workers plus at least one respawn, and the killed worker's row
  // re-leased at the next generation.
  const auto st = distrib::read_status(dir, distrib::cell_keys(suite, base));
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->phase, "done");
  EXPECT_EQ(st->cells_total, cells);
  EXPECT_EQ(st->cells_done, cells);
  EXPECT_GE(st->worker_shards, 5u);
  EXPECT_GE(st->max_generation, 1);
  EXPECT_NE(distrib::render_status(*st).find("study done"),
            std::string::npos);
}

// ---- study status read from the lease log and shards ----------------------

TEST(StudyStatus, ReadsTheLeaseLogAndShardNames) {
  const std::string dir = fresh_dir("status_read");
  const std::string log = dir + "/leases.jsonl";
  const std::vector<std::uint64_t> keys = {11, 12, 13, 14};  // 2 rows of 2
  const auto read = [&](const std::vector<std::uint64_t>& k) {
    auto st = distrib::read_status(dir, k);
    EXPECT_TRUE(st.has_value());
    return st.value_or(distrib::StudyStatus{});
  };
  // No lease log: nothing to read, and reading creates nothing.
  EXPECT_FALSE(distrib::read_status(dir, keys).has_value());
  EXPECT_FALSE(std::filesystem::exists(dir));
  std::filesystem::create_directories(dir);
  EXPECT_FALSE(distrib::read_status(dir, keys).has_value());
  EXPECT_FALSE(std::filesystem::exists(log));

  distrib::LeaseQueue q(log, keys, 2);
  ASSERT_TRUE(q.open());
  // An unexpired lease: running, and the render names its owner.
  ASSERT_EQ(q.acquire(4242, 60).size(), 2u);
  auto st = read(keys);
  EXPECT_EQ(st.phase, "running");
  EXPECT_EQ(st.cells_total, 4u);
  EXPECT_EQ(st.cells_done, 0u);
  EXPECT_EQ(st.cells_leased, 2u);
  EXPECT_EQ(st.owners, std::vector<int>{4242});
  EXPECT_EQ(st.max_generation, 0);
  EXPECT_NE(distrib::render_status(st).find("pids 4242"), std::string::npos);

  // Its row done, the other leased past its deadline (an owner that
  // died with the supervisor): stopped, with both cells expired.
  ASSERT_TRUE(q.complete({11, 12}, 4242));
  ASSERT_EQ(q.acquire(4343, -1).size(), 2u);
  st = read(keys);
  EXPECT_EQ(st.phase, "stopped");
  EXPECT_EQ(st.cells_done, 2u);
  EXPECT_EQ(st.cells_leased, 0u);
  EXPECT_EQ(st.cells_expired, 2u);
  EXPECT_TRUE(st.owners.empty());
  EXPECT_NE(distrib::render_status(st).find("study stopped"),
            std::string::npos);

  // The expired row re-leased: the next generation.
  ASSERT_EQ(q.acquire(4444, 60).size(), 2u);
  st = read(keys);
  EXPECT_EQ(st.phase, "running");
  EXPECT_EQ(st.max_generation, 1);
  EXPECT_EQ(st.cells_expired, 0u);
  EXPECT_EQ(st.owners, std::vector<int>{4444});

  // Every cell done; result shards counted by kind, telemetry shards not.
  ASSERT_TRUE(q.complete({13, 14}, 4444));
  for (const char* name :
       {"shard-0000.jsonl", "shard-0001.jsonl", "shard-0002-inline.jsonl",
        "trace-shard-0000.jsonl", "metrics-shard-0002-inline.jsonl"})
    std::ofstream(dir + "/" + name).put('\n');
  st = read(keys);
  EXPECT_EQ(st.phase, "done");
  EXPECT_EQ(st.cells_done, 4u);
  EXPECT_EQ(st.max_generation, 1);
  EXPECT_EQ(st.worker_shards, 2u);
  EXPECT_EQ(st.inline_shards, 1u);
  EXPECT_NE(distrib::render_status(st).find("study done — 4/4"),
            std::string::npos);

  // Another configuration's keys: the log records none of its cells.
  st = read({21, 22, 23});
  EXPECT_EQ(st.cells_total, 3u);
  EXPECT_EQ(st.cells_done, 0u);
  EXPECT_EQ(st.max_generation, 0);
  EXPECT_EQ(st.phase, "stopped");
}

}  // namespace
