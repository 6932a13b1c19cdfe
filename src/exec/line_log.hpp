#pragma once
// The one crash-safe rule for every durable JSONL file of a study: the
// result shards (core/journal.cpp), the telemetry shards
// (obs/shard.hpp), their aggregator (obs/aggregate.cpp) and the lease
// log (distrib/work_queue.cpp).  exec/jsonio.hpp is their line codec;
// this is their file I/O.
//
//   * A writer appends whole lines, a batch of them in one write() to a
//     descriptor opened O_APPEND, so a crash leaves a prefix of complete
//     lines plus at most one torn line.
//   * A writer newline-terminates a torn tail before it appends: at
//     open, and whenever the file moved since this log last saw its end
//     (another writer may have died mid-line there).  Without the
//     newline the first fresh line would glue onto the fragment and both
//     would be lost to the decoder.  An append that finds the file where
//     this log left it reads nothing.
//   * A reader takes complete lines only.  An incremental read leaves a
//     torn tail pending until a writer terminates it; a whole-file read
//     hands over a last line that lacks its newline (its decoder rejects
//     it if it is torn).
//
// The log holds no user-space buffer, so a fork never inherits unwritten
// bytes.  Descriptor calls are POSIX; on Windows the C runtime's
// equivalents stand in, so the library still builds there.

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>

namespace a64fxcc::exec {

/// Called with each line read, without its newline.
using LineFn = std::function<void(std::string_view)>;

class LineLog {
 public:
  LineLog() = default;
  ~LineLog() { close(); }
  LineLog(const LineLog&) = delete;
  LineLog& operator=(const LineLog&) = delete;

  /// Open `path` for reading and appending, creating it, and
  /// newline-terminate a torn tail.  Reads start at byte 0.  False when
  /// the file cannot be opened or repaired.
  [[nodiscard]] bool open(const std::string& path);

  /// In a child forked from this log's process: swap the inherited
  /// descriptor for a private one, keeping the read offset and the end
  /// this log last saw.  (A forked descriptor shares its open file
  /// description, and with it any flock, with the parent.)  False when
  /// the file cannot be reopened.
  [[nodiscard]] bool reopen();

  void close();
  [[nodiscard]] bool is_open() const;

  /// The open descriptor, -1 when closed: the lease queue takes its
  /// flock on it.
  [[nodiscard]] int fd() const;

  /// Append `lines` (complete, newline-terminated lines) with one write,
  /// prefixed by a newline when the file ends in a torn tail this log
  /// has not seen.  When this log had read to the end of the file, it
  /// also reads past its own lines: the caller applied them already.
  /// False when the log is closed or the write fails.
  bool append(std::string_view lines);

  /// Hand `fn` each complete line past the read offset, and move the
  /// offset past them.  A torn tail stays pending.  `fn` runs under the
  /// log's lock, so it must not call back into the log.
  void read_new(const LineFn& fn);

  /// Hand `fn` every line of `path`, a last line without its newline
  /// included.  False when the file cannot be opened.
  static bool read_all(const std::string& path, const LineFn& fn);

 private:
  static constexpr std::uint64_t kUnseen =
      std::numeric_limits<std::uint64_t>::max();

  bool append_locked(std::string_view lines);
  void close_locked();

  mutable std::mutex mu_;  ///< one process's threads share one log
  int fd_ = -1;
  std::string path_;
  std::uint64_t read_ = 0;     ///< one past the last line read
  std::uint64_t end_ = kUnseen;  ///< a newline-terminated end of the file
                                 ///< this log saw last
};

}  // namespace a64fxcc::exec
