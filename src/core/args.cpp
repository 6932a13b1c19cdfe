#include "core/args.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace a64fxcc::core::args {

std::optional<int> parse_int(const std::string& s) {
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return std::nullopt;
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    return std::nullopt;
  return static_cast<int>(v);
}

std::optional<double> parse_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return std::nullopt;
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<std::string_view> unknown_flag(
    std::span<const char* const> args,
    std::span<const std::string_view> known) {
  for (const std::string_view arg : args) {
    if (!arg.starts_with('-')) continue;
    bool matched = false;
    for (const std::string_view k : known)
      matched = matched || (k.ends_with('=') ? arg.starts_with(k) : arg == k);
    if (!matched) return arg;
  }
  return std::nullopt;
}

}  // namespace a64fxcc::core::args
