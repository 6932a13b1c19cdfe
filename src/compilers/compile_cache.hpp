#pragma once
// Memoization of compile() outcomes, backed by the unified cache tier.
//
// compile() is a pure function of (spec, kernel, apply_quirks), so its
// result can be shared freely: the cache hands out shared_ptr<const
// CompileOutcome> and concurrent readers never mutate it.  The kernel
// half of the key is the source's ir::content_fingerprint (printed IR
// plus bound parameter values and metadata), so two kernels share an
// entry only when the compiler would see identical input — same
// structure and same problem scale.  Callers pass that fingerprint in
// (kernels::Benchmark computes it once at construction): a lookup reads
// a stored 64-bit value instead of printing the source.  This is what
// lets the placement-exploration and performance phases stop
// re-deriving the same optimized nest, and what makes the FJtrad
// reference compile (the SSL2 library share of HPL-class benchmarks) a
// one-time cost per table instead of a per-cell one.
//
// The miss path prints nothing: it hashes the optimized kernel with
// ir::annotated_fingerprint (one tree walk) into CompileOutcome::
// kernel_fingerprint, the key every plan-cache lookup downstream reads,
// and sizes the outcome's reported byte estimate from the kernel's node,
// expression and subscript counts.  compile() itself stays
// fingerprint-free: a bare compile leaves the field 0.
//
// Storage is an insert-only cache::ShardedMap named "compile": hits are
// mutex-free, and a cached outcome stays until its map is destroyed.
//
// Thread-safe: get_or_compile may be called concurrently from engine
// workers.  Two workers racing on the same missing key both compile (the
// function is pure, the results identical) and the first insertion wins;
// the loser counts as a hit, so misses equal cached outcomes at any
// worker count.

#include <cstdint>
#include <memory>

#include "cache/service.hpp"
#include "compilers/compiler_model.hpp"

namespace a64fxcc::compilers {

/// Stable fingerprint of every pipeline/codegen knob of a spec.  (The
/// kernel half of a compile key is ir::content_fingerprint.)
[[nodiscard]] std::uint64_t fingerprint(const CompilerSpec& spec);

using CacheStats = cache::Stats;

class CompileCache {
 public:
  /// Standalone: a private map (tests, ad-hoc tools).
  CompileCache();
  /// Tier-backed: registered on `svc` as "compile".  Shares warm entries
  /// with every other CompileCache attached to the same Service.
  explicit CompileCache(cache::Service& svc);

  struct Result {
    std::shared_ptr<const CompileOutcome> outcome;
    bool hit = false;
  };

  /// The memoized outcome for (spec, source, apply_quirks), compiling on
  /// first use.  `source_fp` must be ir::content_fingerprint(source).
  [[nodiscard]] Result get_or_compile(const CompilerSpec& spec,
                                      const ir::Kernel& source,
                                      std::uint64_t source_fp,
                                      bool apply_quirks = true);

  /// Same, with per-call compile controls.  Only ctx.apply_quirks is part
  /// of the key: the tracer never changes the outcome (see
  /// CompileContext), so cache sharing across tracers is sound.
  [[nodiscard]] Result get_or_compile(const CompilerSpec& spec,
                                      const ir::Kernel& source,
                                      std::uint64_t source_fp,
                                      const CompileContext& ctx);

  [[nodiscard]] CacheStats stats() const noexcept { return map_->stats(); }
  [[nodiscard]] std::size_t size() const { return map_->size(); }

 private:
  struct Key {
    std::uint64_t spec = 0;
    std::uint64_t kernel = 0;
    bool quirks = true;
    friend bool operator==(const Key&, const Key&) = default;
  };
  using Map = cache::ShardedMap<Key, CompileOutcome>;

  [[nodiscard]] static std::uint64_t route(const Key& k) noexcept;

  std::unique_ptr<Map> owned_;  ///< standalone mode only
  Map* map_;
};

}  // namespace a64fxcc::compilers
