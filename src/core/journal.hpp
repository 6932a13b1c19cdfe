#pragma once
// The result-shard format of a `--procs` study: one JSONL line per
// terminally-evaluated (benchmark x compiler) cell, keyed by the
// fingerprints of the compiler spec and the source kernel.  Workers
// and the inline drain record into it, and the Reducer loads it, both
// to decide what a re-run over the same --shard-dir restores and to
// merge the shards into the table (distrib/supervisor.hpp).
//
// Crash-safety model: the file is an exec::LineLog.  The writer appends
// complete lines as soon as a worker's row of cells finishes, one write
// per batch, so after an interrupt the file is a prefix of valid lines
// plus at most one torn line, which load() skips and open()
// newline-terminates.  Doubles are printed in the shortest
// text that reads back to the same bits, so a restored MeasuredRun is
// bit-identical to the one that was measured — resuming never perturbs
// the determinism contract.
//
// The key covers (seed, compiler spec fingerprint + name, kernel
// fingerprint, quirk mode): any change to the study configuration —
// scale, seed, compiler knobs — changes the keys and the stale entries
// are simply never matched.

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "compilers/compiler_model.hpp"
#include "exec/line_log.hpp"
#include "runtime/harness.hpp"

namespace a64fxcc::core {

struct JournalEntry {
  std::uint64_t key = 0;
  runtime::MeasuredRun run;
};

/// JSONL format version written by encode().  History:
///   1 — (untagged) measurement fields only
///   2 — adds "v" tag + optional "decisions" provenance field
///   3 — same fields; values come from the counter-based noise
///       generator (runtime::noise_sample), so v1/v2 measurements are
///       not this build's numbers
/// decode() accepts exactly this version: untagged, older and newer
/// lines are skipped, so a shard directory written under another noise
/// generator never resumes into a table of this one.  Within v3 it also
/// skips a compile or runtime error whose diagnostic starts with
/// "injected ": the compile and runtime fault kinds that wrote such
/// lines are retired, and a re-run clears those cells.
inline constexpr int kJournalFormatVersion = 3;

class Journal {
 public:
  Journal() = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Stable identity of one cell evaluation, built from the
  /// fingerprints of the compiler spec (compilers::fingerprint) and the
  /// kernel (`kernel_fp` = ir::content_fingerprint: IR + bound
  /// parameters + metadata) plus the study seed and quirk mode.
  /// Persisted in every journal, shard and lease log, so its values
  /// must never drift.
  /// Study paths pass kernels::Benchmark::fingerprint().
  [[nodiscard]] static std::uint64_t cell_key(std::uint64_t seed,
                                              const compilers::CompilerSpec& spec,
                                              std::uint64_t kernel_fp,
                                              bool apply_quirks);
  /// Same key, fingerprinting `kernel` first (one print).
  [[nodiscard]] static std::uint64_t cell_key(std::uint64_t seed,
                                              const compilers::CompilerSpec& spec,
                                              const ir::Kernel& kernel,
                                              bool apply_quirks);

  /// One JSONL line (no trailing newline) for an entry.
  [[nodiscard]] static std::string encode(const JournalEntry& e);
  /// Parse one line; nullopt for blank/torn/foreign lines and for the
  /// retired injected compile/runtime faults (see kJournalFormatVersion).
  [[nodiscard]] static std::optional<JournalEntry> decode(
      std::string_view line);

  /// Load every valid line of `path` into the in-memory index, reading
  /// it in fixed-size blocks (memory does not grow with the file); a
  /// last line without its newline is decoded too.
  /// Duplicate keys — within the file or against entries already
  /// loaded from earlier files (shard merges) — dedupe
  /// deterministically: the last complete line wins, in file order and
  /// load-call order.  Returns the number of *distinct* keys this call
  /// added; a missing file loads 0 (fresh start, not an error).  When
  /// `deduped` is non-null it is incremented by the number of valid
  /// lines that overwrote an existing key.
  std::size_t load(const std::string& path, std::size_t* deduped = nullptr);

  /// Open `path` for appending; subsequent record() calls persist.
  /// A torn trailing line left by a crashed writer is newline-terminated
  /// first, so the next record starts on a fresh line instead of gluing
  /// onto the tail (and being lost to both).  Returns false if the file
  /// cannot be opened.
  bool open(const std::string& path);
  void close();

  /// Record terminal cell outcomes: when open(), append all their lines
  /// with one write; otherwise do nothing.  The in-memory index is left
  /// alone — it holds what load() read, and find() never sees a
  /// recorded entry.  Thread-safe (called concurrently from engine
  /// workers).  A crash mid-write leaves a prefix of the batch's lines plus at most one
  /// torn line — the same file shape as a crash between single-entry
  /// records — so callers that complete work only after record()
  /// returns (the distrib workers: shard lines first, `done` leases
  /// second) never mark an outcome done that is not on disk.
  void record(std::span<const JournalEntry> entries);
  /// One entry: the same as a batch of one.
  void record(const JournalEntry& e);

  /// The remembered outcome for a key, or nullptr.  Thread-safe.
  [[nodiscard]] const runtime::MeasuredRun* find(std::uint64_t key) const;

  /// Move the remembered outcome for a key out of the journal (which
  /// forgets it); nullopt when there is none.  Thread-safe.
  [[nodiscard]] std::optional<runtime::MeasuredRun> take(std::uint64_t key);

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;  ///< guards map_
  std::unordered_map<std::uint64_t, runtime::MeasuredRun> map_;
  exec::LineLog out_;  ///< record()'s file, when open()
};

}  // namespace a64fxcc::core
