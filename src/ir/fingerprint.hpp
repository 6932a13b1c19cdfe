#pragma once
// The two kernel identities.
//
// fingerprint(k) — structural, annotation-blind.  Hashes exactly the
// inputs the compile-phase analyses read: parameters, tensor
// declarations, loop headers (var/bounds/step) and statement
// expressions, walked directly over the tree.  Loop *annotations* are
// deliberately excluded — no cached analysis (dependences, statement
// stats, perfect nests) reads them — so annotation-only passes
// (vectorize/unroll/prefetch/pipeline/OCL hints) keep the fingerprint
// stable and the analysis::Manager keeps its caches warm across them.
//
// content_fingerprint(k) — everything a compiler or the perf model sees:
// name, language, parallel model, suite, bound parameter values and the
// *printed* IR, annotations included.  It keys the compile cache, the
// plan cache and (through core::Journal::cell_key) every persisted
// journal, shard and lease entry, so its values must never drift.  It
// costs one print of the kernel, so a kernel is fingerprinted once when
// it is created and the value travels with it
// (kernels::Benchmark::fingerprint, compilers::CompileOutcome::
// kernel_fingerprint); per-lookup paths never recompute it.

#include <cstdint>
#include <string_view>

#include "ir/kernel.hpp"

namespace a64fxcc::ir {

/// Order-sensitive structural hash of `k` (see header comment for what
/// is and is not included).  Two kernels with equal fingerprints present
/// identical inputs to the dependence/access/nest analyses.
[[nodiscard]] std::uint64_t fingerprint(const Kernel& k);

/// Content identity of `k` as a compiler / perf-model input (see header
/// comment).  Prints `k` once.
[[nodiscard]] std::uint64_t content_fingerprint(const Kernel& k);

/// Same value, reusing `printed`, which must equal ir::to_string(k) —
/// for callers that print the kernel anyway.
[[nodiscard]] std::uint64_t content_fingerprint(const Kernel& k,
                                                std::string_view printed);

}  // namespace a64fxcc::ir
