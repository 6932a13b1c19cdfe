#pragma once
// Shared fingerprint-mixing primitives for every memoization layer.
//
// Before the unified cache tier, ir/fingerprint.cpp, the compile cache,
// plan.cpp and the harness each carried a private copy of the same
// splitmix64 finalizer / FNV-1a string hash / incremental Hasher.  They
// are one implementation now, because the shard router of
// cache::ShardedMap derives shard and bucket indices from these exact
// bit patterns: a drifted copy would still compile, but would silently
// split one logical key population across two fingerprints and break
// the journal/cache key compatibility that resume relies on.
//
// Everything here is a pure function of its arguments — no seeds from
// time or address space — which is what makes fingerprints stable
// across processes, so a journal key or lease key written by one
// process names the same cell in every other.

#include <cstdint>
#include <cstring>
#include <string>

namespace a64fxcc::cache {

/// splitmix64 finalizer: the avalanche step used for every 64-bit
/// combine in the project (cache keys, shard routing, RNG stream ids).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the bytes of `s`, resumable via `h` for chained strings.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view s, std::uint64_t h = 1469598103934665603ULL) noexcept {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Incremental order-sensitive hasher: h = mix64(h ^ field) per field.
/// The seed distinguishes fingerprint *domains* (a kernel hashed as a
/// compiler input must not collide with the same kernel hashed as a
/// perf-model input), so each call site keeps its historical seed and
/// its historical values — cache keys and journal entries written
/// before the consolidation still match.
struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  constexpr Hasher() = default;
  constexpr explicit Hasher(std::uint64_t seed) : h(seed) {}

  constexpr void add(std::uint64_t v) noexcept { h = mix64(h ^ v); }
  constexpr void add(std::int64_t v) noexcept {
    add(static_cast<std::uint64_t>(v));
  }
  void add(double v) noexcept {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  constexpr void add(bool v) noexcept { add(static_cast<std::uint64_t>(v)); }
  constexpr void add(int v) noexcept {
    add(static_cast<std::uint64_t>(static_cast<unsigned>(v)));
  }
  constexpr void add(std::string_view s) noexcept { add(fnv1a(s)); }
};

}  // namespace a64fxcc::cache
