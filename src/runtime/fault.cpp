#include "runtime/fault.hpp"

#include <charconv>
#include <cstdlib>
#include <string_view>

#include "cache/fingerprint.hpp"
#include "runtime/harness.hpp"

namespace a64fxcc::runtime {

namespace {

/// Salt so a crash schedule never correlates with measurement noise
/// drawn from the same cell stream.
constexpr std::uint64_t kSalt = 0xFA017ULL;

/// Uniform [0,1) from a 64-bit hash: its top 53 mixed bits.
double hash_u01(std::uint64_t h) {
  return static_cast<double>(cache::mix64(h) >> 11) * 0x1.0p-53;
}

}  // namespace

bool FaultPlan::crashes(std::uint64_t seed, const std::string& benchmark,
                        const std::string& compiler, int attempt) const {
  if (!enabled()) return false;
  const std::uint64_t stream = cell_stream(benchmark, compiler);
  return hash_u01(cache::mix64(seed ^ kSalt) ^ stream ^
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
