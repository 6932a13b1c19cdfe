#include "exec/process.hpp"

#include <cstdio>

#ifndef _WIN32
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace a64fxcc::exec {

std::string ExitStatus::describe() const {
  char buf[48];
  if (signaled)
    std::snprintf(buf, sizeof buf, "signal %d", term_signal);
  else
    std::snprintf(buf, sizeof buf, "exit %d", exit_code);
  return buf;
}

#ifndef _WIN32

int spawn_process(const std::function<int()>& body) {
  // The child inherits copies of these buffers; flush now so it cannot
  // re-emit half-written parent output (it _exits, so it never flushes
  // them itself — but unbuffered stderr writes would still interleave).
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    int code = 111;  // body threw: infrastructure failure, not a cell
    try {
      code = body();
    } catch (...) {
    }
    ::_exit(code);
  }
  return static_cast<int>(pid);
}

namespace {

std::optional<ExitStatus> wait_on(int pid, int flags) {
  int status = 0;
  const pid_t got = ::waitpid(static_cast<pid_t>(pid), &status, flags);
  if (got <= 0) return std::nullopt;
  ExitStatus e;
  e.pid = static_cast<int>(got);
  if (WIFEXITED(status)) {
    e.exited = true;
    e.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    e.signaled = true;
    e.term_signal = WTERMSIG(status);
  }
  return e;
}

}  // namespace

std::optional<ExitStatus> try_reap(int pid) { return wait_on(pid, WNOHANG); }

std::optional<ExitStatus> reap(int pid) { return wait_on(pid, 0); }

bool kill_process(int pid) {
  return pid > 0 && ::kill(static_cast<pid_t>(pid), SIGKILL) == 0;
}

void hard_exit(int code) { ::_exit(code); }

int current_pid() { return static_cast<int>(::getpid()); }

#else  // _WIN32: the multi-process runtime is POSIX-only; every entry
       // point reports failure so callers degrade to in-process mode.

int spawn_process(const std::function<int()>&) { return -1; }
std::optional<ExitStatus> try_reap(int) { return std::nullopt; }
std::optional<ExitStatus> reap(int) { return std::nullopt; }
bool kill_process(int) { return false; }
void hard_exit(int code) { std::exit(code); }
int current_pid() { return 0; }

#endif

}  // namespace a64fxcc::exec
