#include "runtime/fault.hpp"

#include <charconv>
#include <cstdlib>
#include <string_view>

#include "runtime/harness.hpp"

namespace a64fxcc::runtime {

namespace {

// splitmix64 finalizer — same mixer family as the harness noise streams.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Salt so a crash schedule never correlates with measurement noise
/// drawn from the same cell stream.
constexpr std::uint64_t kSalt = 0xFA017ULL;

}  // namespace

double hash_u01(std::uint64_t h) {
  // 53 mantissa bits -> [0, 1).
  return static_cast<double>(mix(h) >> 11) * 0x1.0p-53;
}

bool FaultPlan::crashes(std::uint64_t seed, const std::string& benchmark,
                        const std::string& compiler, int attempt) const {
  if (!enabled()) return false;
  const std::uint64_t stream = cell_stream(benchmark, compiler);
  return hash_u01(mix(seed ^ kSalt) ^ stream ^
                  (0xA77E0000ULL + static_cast<std::uint64_t>(attempt))) <
         crash;
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& text) {
  constexpr std::string_view kKey = "crash:";
  if (text.rfind(kKey, 0) != 0) return std::nullopt;
  const char* val = text.c_str() + kKey.size();
  char* end = nullptr;
  const double rate = std::strtod(val, &end);
  if (end == val || *end != '\0' || !(rate >= 0.0 && rate <= 1.0))
    return std::nullopt;
  return FaultPlan{.crash = rate};
}

std::string FaultPlan::spec() const {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, crash).ptr;
  return "crash:" + std::string(buf, end);
}

}  // namespace a64fxcc::runtime
