#pragma once
// Structured tracing: a thread-safe Tracer collects RAII Span records
// and exports them as Chrome trace_event JSON (chrome://tracing /
// Perfetto), plus a per-phase wall-clock summary for the run manifest.
//
// Tracing is diagnostics-only by contract: spans observe wall-clock but
// never feed the performance model or the RNG streams, so study tables
// are byte-identical with tracing on or off at any --jobs value.  A
// null tracer costs one pointer test per span site (`scoped` returns an
// inert Span without copying any strings), which is what lets the
// harness keep its instrumentation unconditionally compiled in.
//
// Export correctness: every span captures a begin and an end sequence
// number from one global atomic counter.  On a single thread RAII
// guarantees begin(outer) < begin(inner) < end(inner) < end(outer) in
// sequence order, so sorting each thread's B/E events by sequence
// yields properly nested pairs with monotone timestamps — the "every B
// has a matching E" invariant trace viewers require.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace a64fxcc::obs {

class Tracer;

/// RAII guard for one traced phase.  Default-constructed (or moved-from)
/// spans are inert; `end()` is idempotent.
class Span {
 public:
  Span() = default;
  Span(Tracer* t, const char* name, const std::string& benchmark,
       const std::string& compiler);
  Span(Span&& o) noexcept { *this = std::move(o); }
  Span& operator=(Span&& o) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Close the span now (records it with the tracer).  No-op when inert
  /// or already ended.
  void end();

  [[nodiscard]] explicit operator bool() const noexcept {
    return t_ != nullptr;
  }

 private:
  Tracer* t_ = nullptr;
  std::string name_;
  std::string benchmark_;
  std::string compiler_;
  int tid_ = 0;
  std::uint64_t begin_seq_ = 0;
  double begin_us_ = 0;
};

/// Null-safe span factory: the instrumentation idiom is
/// `const auto sp = obs::scoped(tracer, "compile", bench, comp);`
/// which does no work at all when `tracer` is null.
[[nodiscard]] Span scoped(Tracer* t, const char* name,
                          const std::string& benchmark = {},
                          const std::string& compiler = {});

class Tracer {
 public:
  /// One completed span.  Timestamps are microseconds since the
  /// tracer's construction; `tid` is a dense per-tracer thread index.
  struct Record {
    std::string name;
    std::string benchmark;
    std::string compiler;
    int tid = 0;
    std::uint64_t begin_seq = 0;
    std::uint64_t end_seq = 0;
    double begin_us = 0;
    double end_us = 0;

    [[nodiscard]] double seconds() const noexcept {
      return (end_us - begin_us) * 1e-6;
    }
  };

  /// Wall-clock aggregate of all spans sharing one name.
  struct PhaseSummary {
    std::string name;
    std::uint64_t count = 0;
    double total_seconds = 0;
    double max_seconds = 0;
  };

  Tracer() = default;
  /// A tracer whose timestamps count from `epoch` instead of its own
  /// construction time.  The multi-process supervisor forks workers
  /// with the parent tracer's epoch so every process's spans share one
  /// time axis and the merged trace interleaves correctly.
  explicit Tracer(std::chrono::steady_clock::time_point epoch)
      : epoch_(epoch) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The zero point of this tracer's microsecond timestamps
  /// (steady_clock is machine-wide per boot, so the epoch survives
  /// fork and can be handed to child processes).
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const noexcept {
    return epoch_;
  }

  /// Streaming hook: called with every completed record, under the
  /// tracer's lock (serialized; keep it quick).  Workers use it to
  /// append each span to a durable trace shard the moment it closes,
  /// so a SIGKILLed process leaves every finished span on disk.  Set
  /// it before the first span opens; pass {} to clear.
  void set_record_hook(std::function<void(const Record&)> hook);

  /// Thread-safe: called by ~Span from any worker.
  void record(Record r);

  [[nodiscard]] std::vector<Record> records() const;
  [[nodiscard]] std::size_t size() const;

  /// Per-phase totals, sorted by name (the run-manifest view).
  [[nodiscard]] std::vector<PhaseSummary> summary() const;

  /// One-line-per-phase human rendering of summary().
  [[nodiscard]] std::string summary_text() const;

  /// Chrome trace_event JSON: {"traceEvents":[...B/E pairs...],
  /// "phaseSummary":[...]}.  Loadable in chrome://tracing and Perfetto.
  [[nodiscard]] std::string to_chrome_json() const;

  // ---- Span internals -----------------------------------------------------
  [[nodiscard]] double now_us() const;
  [[nodiscard]] std::uint64_t next_seq() noexcept {
    return seq_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Dense index of the calling thread (assigned on first use).
  [[nodiscard]] int current_tid();

 private:
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::function<void(const Record&)> hook_;
  std::unordered_map<std::thread::id, int> tids_;
  std::atomic<std::uint64_t> seq_{0};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace a64fxcc::obs
