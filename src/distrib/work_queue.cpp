#include "distrib/work_queue.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>

#include "exec/jsonio.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
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
  out.reserve(128);
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
  out += '}';
  return out;
}

std::optional<LeaseRecord> LeaseQueue::decode(std::string_view line) {
  static constexpr std::string_view kKeys[] = {"v",     "op",  "key",
                                               "owner", "gen", "deadline"};
  std::string_view f[std::size(kKeys)];
  if (!jsonio::pick(line, kKeys, f)) return std::nullopt;
  const auto& [v, op, key, owner, gen, deadline] = f;
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
      break;
  }
}

#ifndef _WIN32

LeaseQueue::~LeaseQueue() {
  if (fd_ >= 0) ::close(fd_);
}

bool LeaseQueue::open() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) return true;
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return false;
  scan();
  return true;
}

bool LeaseQueue::reopen_after_fork() {
  const std::lock_guard<std::mutex> lock(mu_);
  const int fd = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  return true;
}

bool LeaseQueue::lock_file() { return ::flock(fd_, LOCK_EX) == 0; }

void LeaseQueue::unlock_file() { ::flock(fd_, LOCK_UN); }

void LeaseQueue::scan() {
  if (fd_ < 0) return;
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return;
  const auto size = static_cast<std::uint64_t>(st.st_size);
  while (scan_offset_ < size) {
    char buf[4096];
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(sizeof buf, size - scan_offset_));
    const ssize_t got =
        ::pread(fd_, buf, want, static_cast<off_t>(scan_offset_));
    if (got <= 0) return;
    // Consume complete lines only; a trailing fragment (torn write or a
    // line longer than the chunk) stays pending for the next round.
    std::size_t line_start = 0;
    std::size_t consumed = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(got); ++i) {
      if (buf[i] != '\n') continue;
      const std::string_view line(buf + line_start, i - line_start);
      if (const auto rec = decode(line)) apply(*rec);
      line_start = i + 1;
      consumed = line_start;
    }
    // No newline in the chunk: a torn tail at EOF (or a foreign
    // oversized line — impossible for our fixed-width records).  Leave
    // it pending; the next writer newline-terminates it.
    if (consumed == 0) return;
    scan_offset_ += consumed;
  }
}

bool LeaseQueue::append(const std::string& lines) {
  if (fd_ < 0) return false;
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return false;
  const auto size = static_cast<std::uint64_t>(st.st_size);
  // The caller scanned under the flock, so the log holds nothing past
  // scan_offset_ but a torn tail (a writer killed mid-append).
  // Newline-terminate it first, so our records start on a fresh line
  // instead of gluing onto the fragment and losing both.
  const bool caught_up = size == scan_offset_;
  std::string out;
  if (!caught_up) {
    char last = '\n';
    if (::pread(fd_, &last, 1, st.st_size - 1) == 1 && last != '\n')
      out.push_back('\n');
  }
  out += lines;
  // One write: with O_APPEND the whole batch lands contiguously.
  if (::write(fd_, out.data(), out.size()) !=
      static_cast<ssize_t>(out.size()))
    return false;
  // The caller applies these records itself; skip them on the next scan.
  if (caught_up) scan_offset_ += out.size();
  return true;
}

#else  // _WIN32: POSIX-only (flock + pread); the CLI gates --procs.

LeaseQueue::~LeaseQueue() = default;
bool LeaseQueue::open() { return false; }
bool LeaseQueue::reopen_after_fork() { return false; }
bool LeaseQueue::lock_file() { return false; }
void LeaseQueue::unlock_file() {}
void LeaseQueue::scan() {}
bool LeaseQueue::append(const std::string&) { return false; }

#endif

std::vector<LeaseRecord> LeaseQueue::transact(
    const std::function<void(std::vector<LeaseRecord>&)>& decide) {
  std::vector<LeaseRecord> recs;
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0 || !lock_file()) return recs;
  scan();
  decide(recs);
  std::string lines;
  for (const LeaseRecord& rec : recs) {
    lines += encode(rec);
    lines.push_back('\n');
  }
  if (!recs.empty() && append(lines)) {
    for (const LeaseRecord& rec : recs) apply(rec);
  } else {
    recs.clear();
  }
  unlock_file();
  return recs;
}

std::vector<Claim> LeaseQueue::acquire(int owner, double deadline_seconds,
                                       std::size_t max_rows) {
  std::vector<Claim> out;
  const auto granted = transact([&](std::vector<LeaseRecord>& recs) {
    const double t = now();
    std::size_t rows = 0;
    for (std::size_t row = 0; row < keys_.size() && rows < max_rows;
         row += row_width_) {
      const std::size_t before = out.size();
      const std::size_t end = std::min(keys_.size(), row + row_width_);
      for (std::size_t i = row; i < end; ++i) {
        const CellState& st = cells_[i];
        if (st.done || (st.leased && st.deadline > t)) continue;
        recs.push_back({LeaseRecord::Op::Lease, keys_[i], owner, st.gen,
                        t + deadline_seconds});
        out.push_back({i, keys_[i], st.gen});
      }
      if (out.size() > before) ++rows;
    }
  });
  if (granted.empty()) out.clear();  // the write failed: nothing granted
  return out;
}

bool LeaseQueue::complete(const std::vector<std::uint64_t>& keys, int owner) {
  return transact([&](std::vector<LeaseRecord>& recs) {
           for (const std::uint64_t key : keys)
             if (index_.find(key) == index_.end()) return;
           for (const std::uint64_t key : keys)
             recs.push_back({LeaseRecord::Op::Done, key, owner, 0, 0});
         }).size() == keys.size();
}

std::size_t LeaseQueue::release_owner(int owner) {
  return transact([&](std::vector<LeaseRecord>& recs) {
           for (std::size_t i = 0; i < keys_.size(); ++i) {
             const CellState& st = cells_[i];
             if (st.done || !st.leased || st.owner != owner) continue;
             recs.push_back({LeaseRecord::Op::Release, keys_[i], owner, 0, 0});
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
              recs.push_back({LeaseRecord::Op::Release, key, owner, 0, 0});
          }).empty();
}

bool LeaseQueue::reopen(const std::vector<std::uint64_t>& keys) {
  return transact([&](std::vector<LeaseRecord>& recs) {
           for (const std::uint64_t key : keys)
             if (index_.find(key) == index_.end()) return;
           for (const std::uint64_t key : keys)
             recs.push_back({LeaseRecord::Op::Reopen, key, 0, 0, 0});
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
