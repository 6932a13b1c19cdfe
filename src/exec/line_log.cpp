#include "exec/line_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

namespace a64fxcc::exec {

namespace {

#ifdef _WIN32

// The C runtime's descriptor calls.  A positioned read is a seek and a
// read, which each caller makes under its log's lock or on a descriptor
// of its own.
int open_log(const char* path) {
  return ::_open(path, _O_RDWR | _O_CREAT | _O_APPEND | _O_BINARY,
                 _S_IREAD | _S_IWRITE);
}
int open_read(const char* path) {
  return ::_open(path, _O_RDONLY | _O_BINARY);
}
std::int64_t size_of(int fd) {
  struct _stat64 st {};
  return ::_fstat64(fd, &st) == 0 ? st.st_size : -1;
}
std::int64_t read_at(int fd, char* buf, std::size_t n, std::uint64_t at) {
  if (::_lseeki64(fd, static_cast<__int64>(at), SEEK_SET) < 0) return -1;
  return ::_read(fd, buf, static_cast<unsigned>(n));
}
bool write_all(int fd, std::string_view s) {
  return ::_write(fd, s.data(), static_cast<unsigned>(s.size())) ==
         static_cast<int>(s.size());
}
void close_fd(int fd) { ::_close(fd); }

#else

int open_log(const char* path) {
  return ::open(path, O_RDWR | O_CREAT | O_APPEND, 0644);
}
int open_read(const char* path) { return ::open(path, O_RDONLY); }
std::int64_t size_of(int fd) {
  struct stat st {};
  return ::fstat(fd, &st) == 0 ? static_cast<std::int64_t>(st.st_size) : -1;
}
std::int64_t read_at(int fd, char* buf, std::size_t n, std::uint64_t at) {
  return ::pread(fd, buf, n, static_cast<off_t>(at));
}
bool write_all(int fd, std::string_view s) {
  return ::write(fd, s.data(), s.size()) == static_cast<ssize_t>(s.size());
}
void close_fd(int fd) { ::close(fd); }

#endif

/// Closes a read-only descriptor when it goes out of scope.
struct ScopedFd {
  int fd = -1;
  ~ScopedFd() {
    if (fd >= 0) close_fd(fd);
  }
};

/// Hand `fn` each complete line of `fd` from byte `at` to the end of the
/// file, and return the offset just past the last one.  The bytes after
/// it, a line without its newline, are left in `tail`.
std::uint64_t read_lines(int fd, std::uint64_t at, std::string& tail,
                         const LineFn& fn) {
  char block[1 << 14];
  std::uint64_t done = at;
  for (std::int64_t n; (n = read_at(fd, block, sizeof block, at)) > 0;) {
    std::string_view rest(block, static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = rest.find('\n')) != std::string_view::npos;
         rest.remove_prefix(nl + 1)) {
      if (tail.empty()) {
        fn(rest.substr(0, nl));
      } else {  // a line that crossed a block boundary
        tail.append(rest.substr(0, nl));
        fn(tail);
        tail.clear();
      }
      done = at + static_cast<std::uint64_t>(rest.data() + nl + 1 - block);
    }
    tail.append(rest);
    at += static_cast<std::uint64_t>(n);
  }
  return done;
}

}  // namespace

bool LineLog::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  close_locked();
  fd_ = open_log(path.c_str());
  if (fd_ < 0) return false;
  path_ = path;
  read_ = 0;
  end_ = kUnseen;
  if (append_locked({})) return true;  // terminates a torn tail
  close_locked();
  return false;
}

bool LineLog::reopen() {
  const std::lock_guard<std::mutex> lock(mu_);
  const int fd = open_log(path_.c_str());
  if (fd < 0) return false;
  close_locked();
  fd_ = fd;
  return true;
}

void LineLog::close() {
  const std::lock_guard<std::mutex> lock(mu_);
  close_locked();
}

void LineLog::close_locked() {
  if (fd_ >= 0) close_fd(fd_);
  fd_ = -1;
}

bool LineLog::is_open() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0;
}

int LineLog::fd() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fd_;
}

bool LineLog::append(std::string_view lines) {
  const std::lock_guard<std::mutex> lock(mu_);
  return append_locked(lines);
}

bool LineLog::append_locked(std::string_view lines) {
  if (fd_ < 0) return false;
  const std::int64_t size = size_of(fd_);
  if (size < 0) return false;
  const auto at = static_cast<std::uint64_t>(size);
  // Where this log left the file, the file ends on a newline.  Anywhere
  // else the last byte tells: a torn tail gets its newline in the same
  // write as the lines.
  char last = '\n';
  if (at != end_ && at > 0 && read_at(fd_, &last, 1, at - 1) != 1)
    return false;
  std::string joined;
  if (last != '\n') {
    joined.reserve(lines.size() + 1);
    joined += '\n';
    joined += lines;
    lines = joined;
  }
  if (!lines.empty() && !write_all(fd_, lines)) return false;
  if (read_ == at) read_ = at + lines.size();  // caught up: already applied
  end_ = at + lines.size();
  return true;
}

void LineLog::read_new(const LineFn& fn) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  std::string tail;
  read_ = read_lines(fd_, read_, tail, fn);
  if (tail.empty()) end_ = read_;  // the file ended on a newline here
}

bool LineLog::read_all(const std::string& path, const LineFn& fn) {
  const ScopedFd in{open_read(path.c_str())};
  if (in.fd < 0) return false;
  std::string tail;
  (void)read_lines(in.fd, 0, tail, fn);
  if (!tail.empty()) fn(tail);  // a last line without its newline
  return true;
}

}  // namespace a64fxcc::exec
