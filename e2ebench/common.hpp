#pragma once
// Clocks and order statistics shared by the end-to-end benchmark's
// workloads, correctness gate and traced layer run.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

namespace e2e {

/// CPU seconds of every thread of this process, live or already joined.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds of the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds of every child process this process has reaped.
inline double children_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Process plus reaped-children CPU: the cost of an operation that forks.
inline double total_cpu_s() { return process_cpu_s() + children_cpu_s(); }

inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linearly interpolated quantile q in [0, 1] (NaN when empty).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The tail quantile a sample of n supports: 0.9 when at least ten
/// samples lie beyond it, otherwise the highest one that keeps ten
/// beyond (never below the median).
inline double tail_q(std::size_t n) {
  if (n >= 100) return 0.9;
  if (n <= 20) return 0.5;
  return (static_cast<double>(n) - 10.0) / static_cast<double>(n);
}

}  // namespace e2e
