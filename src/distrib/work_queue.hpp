#pragma once
// Durable on-disk work queue for multi-process studies: one JSONL
// operation log (`leases.jsonl`) shared by the supervisor and every
// worker process, replayed into an in-memory cell table.  Cells are
// identified by their Journal::cell_key fingerprints.  The log is a
// `--procs` study's one durable record: appends are whole lines, readers
// skip torn tails, and a restart replays the log instead of trusting
// volatile state.
//
// Protocol (all records tagged "v":1, one record per cell per line):
//   lease   — `owner` (worker pid) claims the cell until the absolute
//             steady-clock `deadline`; `gen` is the generation granted
//             (0 = first lease).  The generation is the attempt index
//             of the deterministic crash decision, so a re-leased cell
//             sees a fresh one.
//   done    — `owner` finished the cell terminally; `run` carries the
//             cell's outcome, one core::Journal::encode object with its
//             own "v" and "key".  Older builds wrote done lines without
//             it, and a reader that does not know the field skips it.
//   release — the supervisor returned `owner`'s unexpired leases to the
//             pool after reaping its death; matched against the current
//             lease owner so a stale release can never clobber a newer
//             lease.
//   reopen  — the supervisor undid a `done` (resume found the recorded
//             outcome crashed or undecodable), so the cell re-evaluates;
//             the replay forgets the outcome.
//
// The queue knows the grid: keys are row-major with a fixed row width
// (the supervisor's rows are benchmarks, its columns compilers), and
// acquire() hands out one whole row so one process evaluates all of a
// benchmark's cells against one set of per-benchmark caches.  The log
// itself stays cell-granular — a row's lease or done records are
// several lines written by one append — so readers never need to know
// the row width, and logs written one cell at a time replay unchanged.
//
// Mutating operations hold an exclusive flock() on the log for a
// read-decide-append transaction and write all of its records with one
// write(); flock dies with the process, so a kill -9 mid-transaction can
// never wedge the queue.  A row's `complete` writes every cell's done
// line and outcome in that one write, so a done record implies its
// outcome is on disk.  The log is an exec::LineLog, the file rule of the
// telemetry shards too: a scan reads
// complete lines only and leaves a torn trailing line (a writer killed
// mid-append) pending, and an append newline-terminates such a tail
// first.  The flock sits on the LineLog's descriptor.

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "exec/line_log.hpp"

namespace a64fxcc::distrib {

/// One queue operation, as serialized to one leases.jsonl line.
struct LeaseRecord {
  enum class Op : std::uint8_t { Lease, Done, Release, Reopen };
  Op op = Op::Lease;
  std::uint64_t key = 0;
  int owner = 0;        ///< worker pid (Lease/Done/Release)
  int gen = 0;          ///< generation granted (Lease only)
  double deadline = 0;  ///< absolute steady-clock seconds (Lease only)
  /// The cell's outcome payload (Done only; empty = none).  A view: of
  /// the line decode() read, or of the text a caller handed to
  /// complete().
  std::string_view run;
};

/// One granted lease, as returned to a worker.
struct Claim {
  std::size_t index = 0;  ///< row-major cell index in the key order
  std::uint64_t key = 0;
  int gen = 0;  ///< generation of this lease; evaluate_cell's attempt,
                ///< so re-leased cells take the next deterministic
                ///< crash decision
};

/// A currently recorded lease (diagnostics + supervisor reaping).
struct LeaseInfo {
  std::uint64_t key = 0;
  int owner = 0;
  int gen = 0;
  double deadline = 0;
};

class LeaseQueue {
 public:
  /// `keys` (distinct) fixes the cell universe and its order: row-major
  /// rows of `row_width` cells (a trailing partial row is allowed; 0
  /// means 1).  acquire() scans rows front to back.  Records in the log
  /// for unknown keys — stale runs with a different configuration — are
  /// ignored.
  LeaseQueue(std::string path, std::vector<std::uint64_t> keys,
             std::size_t row_width = 1);
  LeaseQueue(const LeaseQueue&) = delete;
  LeaseQueue& operator=(const LeaseQueue&) = delete;

  /// Open (creating if needed) the shared log, newline-terminating a
  /// torn tail, and replay it.  False on failure or on platforms
  /// without flock (the CLI gates --procs behind POSIX).
  [[nodiscard]] bool open();

  /// In a child forked from an open queue's process: swap the inherited
  /// descriptor for a private one, keeping the replayed state and scan
  /// offset, so the child resumes the replay where its parent stopped
  /// instead of at byte 0.  The swap is what makes the flock exclude the
  /// parent: flock locks belong to the open file description, which a
  /// forked descriptor shares.  False when the log cannot be reopened.
  [[nodiscard]] bool reopen_after_fork();

  /// One JSONL line (no trailing newline) / its inverse.  decode()
  /// returns nullopt for blank, torn, foreign, or newer-versioned
  /// lines.
  [[nodiscard]] static std::string encode(const LeaseRecord& rec);
  [[nodiscard]] static std::optional<LeaseRecord> decode(
      std::string_view line);

  /// Machine-wide monotonic clock (seconds) the lease deadlines live
  /// on.  Shared across processes — CLOCK_MONOTONIC is per-boot, not
  /// per-process — which is what lets the supervisor judge a worker's
  /// deadline without any cross-process time agreement.
  [[nodiscard]] static double now();

  /// Lease, for `owner`, every claimable cell (neither done nor under an
  /// unexpired lease) of the first row that still has one, in key
  /// order.  One flock transaction and one write; the returned
  /// generations are committed to the log before this returns.  Empty
  /// when nothing is claimable (all done, or everything pending is
  /// validly leased elsewhere).
  [[nodiscard]] std::vector<Claim> acquire(int owner, double deadline_seconds);

  /// Record terminal completion of leased cells: one `done` line per
  /// key, carrying `runs[i]` (keys[i]'s core::Journal::encode line) as
  /// its outcome, all in one transaction and one write.  Empty `runs`
  /// writes bare done lines, as older builds did.  False (and nothing
  /// written) if a key is unknown, `runs` is neither empty nor parallel
  /// to `keys`, or the write fails.
  bool complete(const std::vector<std::uint64_t>& keys, int owner,
                const std::vector<std::string>& runs = {});

  /// Release every lease currently held by `owner` (reaped worker).
  /// Returns the number of cells returned to the pool.
  std::size_t release_owner(int owner);

  /// Release one lease if `owner` still holds it.
  bool release(std::uint64_t key, int owner);

  /// Undo the `done` of cells so they re-evaluate (resume found their
  /// recorded outcomes crashed or undecodable): one `reopen` line per key,
  /// all in one transaction and one write.  False (and nothing written)
  /// if a key is unknown, or if the write fails.
  bool reopen(const std::vector<std::uint64_t>& keys);

  /// Re-read any log growth from other processes (lock-free: readers
  /// only consume complete lines, so a concurrent half-written append
  /// simply stays pending until the next poll).
  void poll();

  /// Queue state as of the last scan (acquire/complete/... scan before
  /// acting; call poll() first when only observing).
  [[nodiscard]] bool drained() const;
  [[nodiscard]] std::size_t done_count() const;
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] bool done(std::uint64_t key) const;
  /// The outcome payload of `key`'s last done record in log order; empty
  /// when the cell is not done, or its done line carried none.
  [[nodiscard]] std::string outcome(std::uint64_t key) const;
  /// Highest generation granted to any cell (0 when none was leased).
  [[nodiscard]] int max_generation() const;

  /// All current leases on not-done cells / the subset whose deadline
  /// passed `at`.
  [[nodiscard]] std::vector<LeaseInfo> active_leases() const;
  [[nodiscard]] std::vector<LeaseInfo> expired_leases(double at) const;

 private:
  struct CellState {
    bool done = false;
    bool leased = false;
    int owner = 0;
    int gen = 0;  ///< leases granted so far == next generation
    double deadline = 0;
    std::string run;  ///< outcome payload of the last done
  };

  /// One read-decide-append transaction: under mu_ and the flock, catch
  /// up on the log, let `decide` choose records (it may read cells_),
  /// append them with one write and apply them.  Returns the records
  /// written: none when the queue is closed, the lock or the write
  /// failed, or `decide` chose none.
  std::vector<LeaseRecord> transact(
      const std::function<void(std::vector<LeaseRecord>&)>& decide);

  // The helpers below assume mu_ is held.
  void scan();
  void apply(const LeaseRecord& rec);
  bool lock_file();
  void unlock_file();

  mutable std::mutex mu_;  ///< thread-safety within one process;
                           ///< flock() serializes across processes
  std::string path_;
  std::vector<std::uint64_t> keys_;
  std::size_t row_width_ = 1;
  std::vector<CellState> cells_;  ///< parallel to keys_
  std::unordered_map<std::uint64_t, std::size_t> index_;  ///< key -> cell
  exec::LineLog log_;
  std::size_t done_ = 0;
};

}  // namespace a64fxcc::distrib
