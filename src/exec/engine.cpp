#include "exec/engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace a64fxcc::exec {

int resolve_workers(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

struct Engine::Impl {
  std::mutex mu;
  std::condition_variable cv_work;  // workers: a new batch is available
  std::condition_variable cv_done;  // try_run(): the batch has drained
  // The claim cursor packs the batch generation into its high bits so a
  // worker that was preempted between reading the batch state and claiming
  // its first job can never claim (or miscount) jobs of a later batch: the
  // claim CAS fails as soon as try_run() re-arms the cursor.  Job indices
  // therefore must fit in 32 bits — a study is a few hundred cells.
  static constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << 32) - 1;

  const std::function<void(std::size_t, int)>* fn = nullptr;
  std::size_t njobs = 0;
  std::atomic<std::uint64_t> cursor{0};  // (generation << 32) | next job
  std::size_t finished = 0;              // jobs claimed in this batch
  std::uint64_t generation = 0;          // bumped once per batch
  std::vector<JobError> errors;          // every job error (guarded by mu)
  bool shutdown = false;
  std::vector<std::thread> threads;

  void drain(const std::function<void(std::size_t, int)>* f, std::size_t n,
             std::uint64_t gen, int worker) {
    const std::uint64_t tag = (gen & kIndexMask) << 32;
    std::size_t mine = 0;
    std::vector<JobError> local;
    for (;;) {
      std::uint64_t cur = cursor.load(std::memory_order_relaxed);
      if ((cur & ~kIndexMask) != tag) break;  // a newer batch owns the cursor
      const std::size_t j = static_cast<std::size_t>(cur & kIndexMask);
      if (j >= n) break;
      if (!cursor.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_relaxed))
        continue;
      // Failures are isolated per job: a worker keeps executing later
      // jobs after an error.
      try {
        (*f)(j, worker);
      } catch (...) {
        local.push_back({j, std::current_exception()});
      }
      ++mine;
    }
    if (mine > 0) {
      const std::lock_guard<std::mutex> lock(mu);
      finished += mine;
      for (auto& e : local) errors.push_back(std::move(e));
      if (finished == n) cv_done.notify_all();
    }
  }

  void worker_loop(int worker) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t, int)>* f;
      std::size_t n;
      std::uint64_t gen;
      {
        std::unique_lock<std::mutex> lock(mu);
        // fn != nullptr keeps late wakers out of the window after a batch
        // has drained (try_run nulls fn before returning): binding *fn
        // there would be UB, and the batch is gone anyway.
        cv_work.wait(lock, [&] {
          return shutdown || (generation != seen && fn != nullptr);
        });
        if (shutdown) return;
        seen = gen = generation;
        f = fn;
        n = njobs;
      }
      // *f is dereferenced only after a successful claim: a claim for gen
      // proves the batch is still draining, so the caller's fn is alive.
      drain(f, n, gen, worker);
    }
  }
};

Engine::Engine(int workers) : workers_(resolve_workers(workers)) {
  if (workers_ <= 1) return;  // inline mode: no threads, no impl
  impl_ = std::make_unique<Impl>();
  impl_->threads.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w)
    impl_->threads.emplace_back([this, w] { impl_->worker_loop(w); });
}

Engine::~Engine() {
  if (!impl_) return;
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->cv_work.notify_all();
  for (auto& t : impl_->threads) t.join();
}

BatchResult Engine::try_run(
    std::size_t njobs, const std::function<void(std::size_t, int)>& fn) {
  BatchResult res;
  if (njobs == 0) return res;
  if (!impl_ || njobs == 1) {
    // Legacy serial path: jobs in index order on the calling thread.
    for (std::size_t j = 0; j < njobs; ++j) {
      try {
        fn(j, 0);
      } catch (...) {
        res.errors.push_back({j, std::current_exception()});
      }
    }
    return res;
  }
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->fn = &fn;
    impl_->njobs = njobs;
    impl_->finished = 0;
    impl_->errors.clear();
    ++impl_->generation;
    impl_->cursor.store((impl_->generation & Impl::kIndexMask) << 32,
                        std::memory_order_relaxed);
    impl_->cv_work.notify_all();
    impl_->cv_done.wait(lock, [&] { return impl_->finished == njobs; });
    impl_->fn = nullptr;
    res.errors = std::move(impl_->errors);
    impl_->errors.clear();
  }
  std::sort(res.errors.begin(), res.errors.end(),
            [](const JobError& a, const JobError& b) { return a.job < b.job; });
  return res;
}

void Engine::run(std::size_t njobs,
                 const std::function<void(std::size_t, int)>& fn) {
  const BatchResult res = try_run(njobs, fn);
  if (!res.ok()) std::rethrow_exception(res.errors.front().error);
}

}  // namespace a64fxcc::exec
