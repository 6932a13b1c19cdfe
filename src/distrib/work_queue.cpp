#include "distrib/work_queue.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>

#include "exec/jsonio.hpp"

#ifndef _WIN32
#include <sys/file.h>
#endif

namespace a64fxcc::distrib {

namespace {

const char* op_name(LeaseRecord::Op op) {
  switch (op) {
    case LeaseRecord::Op::Lease: return "lease";
    case LeaseRecord::Op::Done: return "done";
    case LeaseRecord::Op::Release: return "release";
    case LeaseRecord::Op::Reopen: return "reopen";
  }
  return "?";
}

std::optional<LeaseRecord::Op> parse_op(std::string_view s) {
  if (s == "lease") return LeaseRecord::Op::Lease;
  if (s == "done") return LeaseRecord::Op::Done;
  if (s == "release") return LeaseRecord::Op::Release;
  if (s == "reopen") return LeaseRecord::Op::Reopen;
  return std::nullopt;
}

// The line codec is the shared one (exec/jsonio.hpp).
namespace jsonio = exec::jsonio;

/// Append `v` as printf's %.9f would, without the format parser.
void append_fixed9(std::string& out, double v) {
  char buf[330];  // any double: DBL_MAX has 309 integer digits
  const auto res =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 9);
  out.append(buf, res.ptr);
}

}  // namespace

LeaseQueue::LeaseQueue(std::string path, std::vector<std::uint64_t> keys,
                       std::size_t row_width)
    : path_(std::move(path)),
      keys_(std::move(keys)),
      row_width_(std::max<std::size_t>(row_width, 1)),
      cells_(keys_.size()) {
  index_.reserve(keys_.size());
  for (std::size_t i = 0; i < keys_.size(); ++i) index_.emplace(keys_[i], i);
}

std::string LeaseQueue::encode(const LeaseRecord& rec) {
  std::string out;
  out.reserve(128 + rec.run.size());
  out += "{\"v\":1,";
  jsonio::field_str(out, "op", op_name(rec.op));
  out += ',';
  jsonio::field_hex64(out, "key", rec.key);
  out += ',';
  jsonio::field_num(out, "owner", rec.owner);
  out += ',';
  jsonio::field_num(out, "gen", rec.gen);
  out += ",\"deadline\":";
  append_fixed9(out, rec.deadline);
  if (!rec.run.empty()) {
    out += ",\"run\":";
    out += rec.run;
  }
  out += '}';
  return out;
}

std::optional<LeaseRecord> LeaseQueue::decode(std::string_view line) {
  static constexpr std::string_view kKeys[] = {
      "v", "op", "key", "owner", "gen", "deadline", "run"};
  std::string_view f[std::size(kKeys)];
  if (!jsonio::pick(line, kKeys, f)) return std::nullopt;
  const auto& [v, op, key, owner, gen, deadline, run] = f;
  if (jsonio::num(v) != 1) return std::nullopt;
  std::string op_label;  // fits the small-string buffer
  if (!jsonio::str(op, op_label)) return std::nullopt;
  const auto o = parse_op(op_label);
  const auto k = jsonio::hex64(key);
  if (!o || !k) return std::nullopt;
  LeaseRecord rec;
  rec.op = *o;
  rec.key = *k;
  rec.owner = static_cast<int>(jsonio::num(owner).value_or(0));
  rec.gen = static_cast<int>(jsonio::num(gen).value_or(0));
  rec.deadline = jsonio::num(deadline).value_or(0);
  rec.run = run;
  return rec;
}

double LeaseQueue::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void LeaseQueue::apply(const LeaseRecord& rec) {
  const auto it = index_.find(rec.key);
  if (it == index_.end()) return;  // stale config: unknown cell
  CellState& st = cells_[it->second];
  switch (rec.op) {
    case LeaseRecord::Op::Lease:
      st.leased = true;
      st.owner = rec.owner;
      st.deadline = rec.deadline;
      // max() makes re-applying our own just-appended record (it is
      // scanned again on the next transaction) a no-op.
      st.gen = std::max(st.gen, rec.gen + 1);
      break;
    case LeaseRecord::Op::Done:
      if (!st.done) {
        st.done = true;
        ++done_;
      }
      st.leased = false;
      st.run.assign(rec.run);  // the last done's outcome wins
      break;
    case LeaseRecord::Op::Release:
      // Owner-matched: a release the supervisor wrote for a dead worker
      // cannot clobber a newer lease granted in between.
      if (st.leased && st.owner == rec.owner) st.leased = false;
      break;
    case LeaseRecord::Op::Reopen:
      if (st.done) {
        st.done = false;
        --done_;
      }
      st.leased = false;
      st.run.clear();
      break;
  }
}

#ifndef _WIN32
constexpr bool kFileLocks = true;
bool LeaseQueue::lock_file() { return ::flock(log_.fd(), LOCK_EX) == 0; }
void LeaseQueue::unlock_file() { ::flock(log_.fd(), LOCK_UN); }
#else  // no flock: open() fails, and the CLI gates --procs behind POSIX
constexpr bool kFileLocks = false;
bool LeaseQueue::lock_file() { return false; }
void LeaseQueue::unlock_file() {}
#endif

bool LeaseQueue::open() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (log_.is_open()) return true;
  if (!kFileLocks || !log_.open(path_)) return false;
  scan();
  return true;
}

bool LeaseQueue::reopen_after_fork() {
  const std::lock_guard<std::mutex> lock(mu_);
  return log_.reopen();
}

void LeaseQueue::scan() {
  log_.read_new([this](std::string_view line) {
    if (const auto rec = decode(line)) apply(*rec);
  });
}

std::vector<LeaseRecord> LeaseQueue::transact(
    const std::function<void(std::vector<LeaseRecord>&)>& decide) {
  std::vector<LeaseRecord> recs;
  const std::lock_guard<std::mutex> lock(mu_);
  if (!log_.is_open() || !lock_file()) return recs;
  scan();
  decide(recs);
  std::string lines;
  for (const LeaseRecord& rec : recs) {
    lines += encode(rec);
    lines.push_back('\n');
  }
  // These records are applied here.  When the scan read to the end of
  // the log, the log also reads past them; after a torn tail the next
  // scan applies them again, which apply() makes a no-op.
  if (!recs.empty() && log_.append(lines)) {
    for (const LeaseRecord& rec : recs) apply(rec);
  } else {
    recs.clear();
  }
  unlock_file();
  return recs;
}

std::vector<Claim> LeaseQueue::acquire(int owner, double deadline_seconds) {
  std::vector<Claim> out;
  const auto granted = transact([&](std::vector<LeaseRecord>& recs) {
    const double t = now();
    for (std::size_t row = 0; row < keys_.size() && out.empty();
         row += row_width_) {
      const std::size_t end = std::min(keys_.size(), row + row_width_);
      for (std::size_t i = row; i < end; ++i) {
        const CellState& st = cells_[i];
        if (st.done || (st.leased && st.deadline > t)) continue;
        recs.push_back({LeaseRecord::Op::Lease, keys_[i], owner, st.gen,
                        t + deadline_seconds, {}});
        out.push_back({i, keys_[i], st.gen});
      }
    }
  });
  if (granted.empty()) out.clear();  // the write failed: nothing granted
  return out;
}

bool LeaseQueue::complete(const std::vector<std::uint64_t>& keys, int owner,
                          const std::vector<std::string>& runs) {
  if (!runs.empty() && runs.size() != keys.size()) return false;
  return transact([&](std::vector<LeaseRecord>& recs) {
           for (const std::uint64_t key : keys)
             if (index_.find(key) == index_.end()) return;
           for (std::size_t i = 0; i < keys.size(); ++i)
             recs.push_back({LeaseRecord::Op::Done, keys[i], owner, 0, 0,
                             runs.empty() ? std::string_view() : runs[i]});
         }).size() == keys.size();
}

std::size_t LeaseQueue::release_owner(int owner) {
  return transact([&](std::vector<LeaseRecord>& recs) {
           for (std::size_t i = 0; i < keys_.size(); ++i) {
             const CellState& st = cells_[i];
             if (st.done || !st.leased || st.owner != owner) continue;
             recs.push_back(
                 {LeaseRecord::Op::Release, keys_[i], owner, 0, 0, {}});
           }
         })
      .size();
}

bool LeaseQueue::release(std::uint64_t key, int owner) {
  return !transact([&](std::vector<LeaseRecord>& recs) {
            const auto it = index_.find(key);
            if (it == index_.end()) return;
            const CellState& st = cells_[it->second];
            if (st.leased && !st.done && st.owner == owner)
              recs.push_back({LeaseRecord::Op::Release, key, owner, 0, 0, {}});
          }).empty();
}

bool LeaseQueue::reopen(const std::vector<std::uint64_t>& keys) {
  return transact([&](std::vector<LeaseRecord>& recs) {
           for (const std::uint64_t key : keys)
             if (index_.find(key) == index_.end()) return;
           for (const std::uint64_t key : keys)
             recs.push_back({LeaseRecord::Op::Reopen, key, 0, 0, 0, {}});
         }).size() == keys.size();
}

void LeaseQueue::poll() {
  const std::lock_guard<std::mutex> lock(mu_);
  scan();
}

bool LeaseQueue::drained() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return done_ >= keys_.size();
}

std::size_t LeaseQueue::done_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

bool LeaseQueue::done(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  return it != index_.end() && cells_[it->second].done;
}

std::string LeaseQueue::outcome(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  return it != index_.end() ? cells_[it->second].run : std::string();
}

int LeaseQueue::max_generation() const {
  const std::lock_guard<std::mutex> lock(mu_);
  int out = 0;
  for (const CellState& st : cells_) out = std::max(out, st.gen - 1);
  return out;
}

std::vector<LeaseInfo> LeaseQueue::active_leases() const {
  std::vector<LeaseInfo> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const CellState& st = cells_[i];
    if (st.done || !st.leased) continue;
    out.push_back({keys_[i], st.owner, st.gen - 1, st.deadline});
  }
  return out;
}

std::vector<LeaseInfo> LeaseQueue::expired_leases(double at) const {
  std::vector<LeaseInfo> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const CellState& st = cells_[i];
    if (st.done || !st.leased || st.deadline > at) continue;
    out.push_back({keys_[i], st.owner, st.gen - 1, st.deadline});
  }
  return out;
}

}  // namespace a64fxcc::distrib
