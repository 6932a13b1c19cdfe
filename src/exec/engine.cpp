#include "exec/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace a64fxcc::exec {

int resolve_workers(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void for_each_job(std::size_t njobs, int workers,
                  const std::function<void(std::size_t, int)>& fn) {
  const int nthreads = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(resolve_workers(workers)), njobs));
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::size_t failed_job = njobs;  // lowest failed index (guarded by mu)
  std::exception_ptr failed;
  const auto drain = [&](int worker) {
    for (;;) {
      const std::size_t j = next.fetch_add(1, std::memory_order_relaxed);
      if (j >= njobs) return;
      // Failures are isolated per job: a worker keeps executing later
      // jobs after an error.
      try {
        fn(j, worker);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (j < failed_job) {
          failed_job = j;
          failed = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(std::max(nthreads - 1, 0)));
  for (int w = 1; w < nthreads; ++w) {
    // A thread the system refuses leaves its share to the others.
    try {
      threads.emplace_back(drain, w);
    } catch (const std::system_error&) {
      break;
    }
  }
  drain(0);
  for (auto& t : threads) t.join();
  if (failed) std::rethrow_exception(failed);
}

}  // namespace a64fxcc::exec
