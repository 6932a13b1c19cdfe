#pragma once
// The three kernel identities.  Each hashes a kernel for one kind of
// reader; none is a second copy of another.
//
// fingerprint(k) — structural, annotation-blind, for analysis::Manager.
// Hashes exactly the inputs the compile-phase analyses read: parameters,
// tensor declarations, loop headers (var/bounds/step) and statement
// expressions, walked directly over the tree.  Loop *annotations* are
// deliberately excluded — no cached analysis (dependences, statement
// stats, perfect nests) reads them — so annotation-only passes
// (vectorize/unroll/prefetch/pipeline/OCL hints) keep the fingerprint
// stable and the analysis::Manager keeps its caches warm across them.
//
// annotated_fingerprint(k) — the plan key, for the perf model.  The
// same tree walk plus loop-variable names and all nine LoopAnnot
// fields: everything ir::to_string prints, plus the metadata.  Two
// compiled kernels share it exactly when they share a content
// fingerprint (pinned over the paper suite by a test), but it prints
// nothing.  runtime::RowMemo stores it in CompileOutcome::
// kernel_fingerprint when it compiles, and perf::analyze(k, m)
// computes it, so both agree on every plan key.  Never persisted.
//
// content_fingerprint(k) — the persisted identity, for everything keyed
// across processes and builds: the compile and cell keys' source half
// (kernels::Benchmark::fingerprint) and, through core::Journal::
// cell_key, every journal, shard and lease entry.  Name, language,
// parallel model, suite, bound parameter values and the *printed* IR,
// annotations included; its values must never drift.  It costs one
// print of the kernel, so each source kernel is fingerprinted once when
// its Benchmark is built and the value travels with it.

#include <cstdint>

#include "ir/kernel.hpp"

namespace a64fxcc::ir {

/// Order-sensitive structural hash of `k` (see header comment for what
/// is and is not included).  Two kernels with equal fingerprints present
/// identical inputs to the dependence/access/nest analyses.
[[nodiscard]] std::uint64_t fingerprint(const Kernel& k);

/// Structural hash plus variable names and loop annotations: identity
/// of `k` as a perf-model input (see header comment).  Prints nothing.
[[nodiscard]] std::uint64_t annotated_fingerprint(const Kernel& k);

/// Content identity of `k` as a compiler input and as a persisted key
/// (see header comment).  Prints `k` once.
[[nodiscard]] std::uint64_t content_fingerprint(const Kernel& k);

}  // namespace a64fxcc::ir
