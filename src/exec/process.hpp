#pragma once
// Minimal POSIX process primitives for the multi-process study runtime
// (src/distrib/).  The thread runner isolates cell *failures*; these
// fork/waitpid wrappers are what isolates cell *crashes*: a worker
// process that segfaults, OOMs, or is kill -9ed takes down one shard,
// and the supervisor reaps it here and re-leases its cells.
//
// Children run plain C++ (no exec) and leave via _exit, so they never
// flush stdio buffers inherited from the parent and never run the
// parent's atexit handlers — the only safe way to end a forked worker.

#include <functional>
#include <optional>
#include <string>

namespace a64fxcc::exec {

/// Terminal state of one reaped child.
struct ExitStatus {
  int pid = 0;
  bool exited = false;    ///< left via _exit/exit
  int exit_code = 0;      ///< valid when `exited`
  bool signaled = false;  ///< killed by a signal (SIGKILL, SIGSEGV, ...)
  int term_signal = 0;    ///< valid when `signaled`

  /// A worker that drained the queue and left normally.
  [[nodiscard]] bool clean() const noexcept { return exited && exit_code == 0; }
  /// "exit 0", "exit 139", "signal 9" — for lifecycle event details.
  [[nodiscard]] std::string describe() const;
};

/// Fork; the child runs `body` and _exits with its return value.
/// Returns the child pid, or -1 when fork fails (or the platform has
/// no fork).  Flushes the parent's stdout/stderr first so the child
/// cannot inherit half-written buffers.
[[nodiscard]] int spawn_process(const std::function<int()>& body);

/// Non-blocking reap of one child: nullopt while it is still running.
[[nodiscard]] std::optional<ExitStatus> try_reap(int pid);

/// Blocking reap (the supervisor's final drain).
[[nodiscard]] std::optional<ExitStatus> reap(int pid);

/// SIGKILL a child — used on workers whose lease deadline expired while
/// they were still alive (the hung-worker case).
bool kill_process(int pid);

/// True when the pid names a live process we may signal.
[[nodiscard]] bool process_alive(int pid);

/// _exit wrapper so worker code does not need <unistd.h> directly.
[[noreturn]] void hard_exit(int code);

/// This process's pid — the lease-owner identity in the work queue.
[[nodiscard]] int current_pid();

}  // namespace a64fxcc::exec
