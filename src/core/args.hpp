#pragma once
// Strict command-line value parsing for the CLI front end.
//
// The historical std::atoi/std::atof flag parsing silently turned any
// non-numeric value into 0 — `--jobs=all` became --jobs=0, `--scale=x`
// a rejected scale of 0 — and a misspelled or retired flag was simply
// ignored.  Either way the run proceeds with a policy the user did not
// ask for, the worst possible failure mode for an hours-long study.
// These helpers parse the whole string or reject it, and find the flag
// a command does not know, so the CLI can refuse both with a diagnostic
// and a consistent non-zero exit code instead.

#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace a64fxcc::core::args {

/// Parse a whole string as a base-10 integer.  Rejects empty strings,
/// trailing garbage ("4x"), and out-of-int-range values.  Leading
/// whitespace and a sign are accepted (strtol rules).
[[nodiscard]] std::optional<int> parse_int(const std::string& s);

/// Parse a whole string as a finite double.  Rejects empty strings,
/// trailing garbage ("0.5s"), inf/nan, and out-of-range values.
[[nodiscard]] std::optional<double> parse_double(const std::string& s);

/// The first of `args` that starts with '-' but matches no entry of
/// `known`, or nullopt when every flag is known.  An entry ending in
/// '=' names a flag that takes a value and matches every argument it
/// prefixes ("--scale=" matches "--scale=0.5"); any other entry must
/// equal the whole argument ("--csv").  Arguments without a leading
/// '-' are positional and never reported.
[[nodiscard]] std::optional<std::string_view> unknown_flag(
    std::span<const char* const> args,
    std::span<const std::string_view> known);

}  // namespace a64fxcc::core::args
