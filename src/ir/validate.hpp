#pragma once
// Structural validation of kernels with human-readable diagnostics.
//
// The builder and parser construct well-formed trees by construction,
// but user-assembled kernels (and hand-edited textual files) can still
// contain semantic slips the interpreter would only surface mid-run as
// exceptions: rank mismatches, uses of undeclared variables, shadowed
// loop variables, zero steps, non-positive dimensions, writes to
// never-read tensors, and subscripts referencing variables outside
// their scope.  `validate` finds them all up front.  It also rejects
// sizes the analyses could not compute without signed overflow: every
// tensor dimension, element count and byte size, and every loop bound's
// magnitude over the iteration space, must fit int64.

#include <string>
#include <vector>

#include "ir/kernel.hpp"

namespace a64fxcc::ir {

struct Diagnostic {
  enum class Severity : std::uint8_t { Error, Warning };
  Severity severity = Severity::Error;
  std::string message;
};

/// All problems found; empty means structurally sound.
[[nodiscard]] std::vector<Diagnostic> validate(const Kernel& k);

/// Convenience: true iff validate() reports no errors (warnings allowed).
[[nodiscard]] bool is_valid(const Kernel& k);

/// Render diagnostics one per line ("error: ..." / "warning: ...").
[[nodiscard]] std::string to_string(const std::vector<Diagnostic>& ds);

}  // namespace a64fxcc::ir
