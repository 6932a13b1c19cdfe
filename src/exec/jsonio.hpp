#pragma once
// Line-oriented JSON codec shared by every durable log and telemetry
// writer in the tree: the lease queue op log (distrib/work_queue.cpp)
// and the cell outcomes its done records carry (core/journal.cpp), the
// telemetry shards (obs/shard.cpp) and the `obs report` parser.  Their file I/O is the
// one exec::LineLog (exec/line_log.hpp).  One codec, one escaping
// convention:
//
//   * writers emit one complete JSON object per line, strings escaped
//     for '"' and '\\' only, doubles in the shortest text that reads
//     back to the same bits (std::to_chars; the %.17g spelling of older
//     files reads back identically, so every file format is unchanged);
//   * readers walk a line once (for_each_field / pick) and get each
//     field's raw value text, which num / u64 / hex64 / str convert.
//     Nested objects and arrays come back as raw views the caller can
//     walk again.  Anything that is not one complete object — a torn
//     tail, noise — reads as absent, never as an error.  That torn-tail
//     tolerance is what makes all of these logs safe to append to from
//     processes that may die mid-write.  The first occurrence of a
//     duplicate key wins and unknown keys are ignored.
//
// Header-only and dependency-free so every layer (exec is the lowest
// common library) can share it.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>

namespace a64fxcc::exec::jsonio {

/// Escape-append `s` into `out` ('"' and '\\' get a backslash; our
/// writers never embed control characters in logged strings).
inline void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

/// Append one "key":"value" pair (value escaped).
inline void field_str(std::string& out, const char* key, std::string_view v) {
  out += '"';
  out += key;
  out += "\":\"";
  append_escaped(out, v);
  out += '"';
}

/// Append `v` in the shortest text that reads back to the same bits
/// (writers keep infinities out of the file entirely).  Integers below
/// 2^53 keep their plain digits, as %.17g wrote them: the shortest text
/// of 100000 would be 1e+05.
inline void append_num(std::string& out, double v) {
  char buf[32];
  const bool integral = std::fabs(v) < 0x1p53 && v == std::trunc(v);
  const auto res = integral ? std::to_chars(buf, buf + sizeof buf, v,
                                            std::chars_format::fixed)
                            : std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Append one "key":value numeric pair (see append_num).
inline void field_num(std::string& out, const char* key, double v) {
  out += '"';
  out += key;
  out += "\":";
  append_num(out, v);
}

/// Append one "key":"<16 hex digits>" pair (hex64 reads it back).
inline void field_hex64(std::string& out, const char* key, std::uint64_t v) {
  char digits[16];
  for (int i = 15; i >= 0; --i, v >>= 4) digits[i] = "0123456789abcdef"[v & 15];
  out += '"';
  out += key;
  out += "\":\"";
  out.append(digits, sizeof digits);
  out += '"';
}

namespace detail {

inline constexpr std::size_t kTorn = std::string_view::npos;

inline bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\r' || c == '\t';
}

inline std::size_t skip_space(std::string_view s, std::size_t i) {
  while (i < s.size() && is_space(s[i])) ++i;
  return i;
}

/// One past the string whose opening quote is s[i]; kTorn when it never
/// closes.
inline std::size_t skip_string(std::string_view s, std::size_t i) {
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;  // the escaped character, whatever it is
    } else if (s[i] == '"') {
      return i + 1;
    }
  }
  return kTorn;
}

/// One past the value that starts at s[i]: a string, a balanced object
/// or array (strings inside skipped whole, so a bracket in a string
/// cannot unbalance it), or a bare scalar up to the next delimiter.
/// kTorn when the value is empty or never ends.
inline std::size_t skip_value(std::string_view s, std::size_t i) {
  if (i >= s.size()) return kTorn;
  if (s[i] == '"') return skip_string(s, i);
  if (s[i] == '{' || s[i] == '[') {
    int depth = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        i = skip_string(s, i);
        if (i == kTorn) return kTorn;
        continue;
      }
      if (c == '{' || c == '[') {
        ++depth;
      } else if ((c == '}' || c == ']') && --depth == 0) {
        return i + 1;
      }
      ++i;
    }
    return kTorn;
  }
  const std::size_t start = i;
  while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
         !is_space(s[i]))
    ++i;
  return i == start ? kTorn : i;
}

/// Walk the comma-separated members of the container whose opening
/// bracket is s[0] and whose closing one is `close`; `member(i)` scans
/// one member starting at s[i] and returns one past it (kTorn: malformed).
/// True only when `s` is exactly that one container (whitespace aside).
template <class Member>
bool walk(std::string_view s, char open, char close, Member&& member) {
  std::size_t i = skip_space(s, 0);
  if (i >= s.size() || s[i] != open) return false;
  i = skip_space(s, i + 1);
  if (i < s.size() && s[i] == close) return skip_space(s, i + 1) == s.size();
  while (true) {
    i = member(i);
    if (i == kTorn) return false;
    i = skip_space(s, i);
    if (i >= s.size()) return false;
    if (s[i] == close) return skip_space(s, i + 1) == s.size();
    if (s[i] != ',') return false;
    i = skip_space(s, i + 1);
  }
}

}  // namespace detail

/// Walk the object `obj` once, calling fn(key, raw value) for each field
/// in order.  Keys come without their quotes (escapes left as written);
/// a raw value is the value's exact text: a string keeps its quotes, an
/// object or array its brackets.  Returns false unless `obj` is exactly
/// one complete object; fn may have seen a prefix of the fields by then,
/// so callers commit what they collected only on true.
template <class Fn>
bool for_each_field(std::string_view obj, Fn&& fn) {
  using namespace detail;
  return walk(obj, '{', '}', [&](std::size_t i) {
    if (i >= obj.size() || obj[i] != '"') return kTorn;
    const std::size_t key_end = skip_string(obj, i);
    if (key_end == kTorn) return kTorn;
    std::size_t v = skip_space(obj, key_end);
    if (v >= obj.size() || obj[v] != ':') return kTorn;
    v = skip_space(obj, v + 1);
    const std::size_t end = skip_value(obj, v);
    if (end != kTorn)
      fn(obj.substr(i + 1, key_end - i - 2), obj.substr(v, end - v));
    return end;
  });
}

/// Walk the array `arr` once, calling fn(raw element) for each element.
/// Returns false unless `arr` is exactly one complete array.
template <class Fn>
bool for_each_element(std::string_view arr, Fn&& fn) {
  using namespace detail;
  return walk(arr, '[', ']', [&](std::size_t i) {
    const std::size_t end = skip_value(arr, i);
    if (end != kTorn) fn(arr.substr(i, end - i));
    return end;
  });
}

/// One pass over the object `obj`: out[k] becomes the raw value of the
/// first field named keys[k], or stays empty when there is none (a raw
/// value is never empty).  False when `obj` is not one complete object.
inline bool pick(std::string_view obj, std::span<const std::string_view> keys,
                 std::span<std::string_view> out) {
  for (std::string_view& v : out) v = {};
  // Writers emit fields in a fixed order, so try the key after the last
  // match first: a line in the expected order costs one compare a field.
  std::size_t next = 0;
  return for_each_field(obj, [&](std::string_view key, std::string_view raw) {
    for (std::size_t n = 0; n < keys.size(); ++n) {
      const std::size_t k = (next + n) % keys.size();
      if (keys[k] != key) continue;
      if (out[k].empty()) out[k] = raw;
      next = k + 1;
      return;
    }
  });
}

/// A raw number, all of it; nullopt when absent or malformed.
inline std::optional<double> num(std::string_view raw) {
  if (raw.empty()) return std::nullopt;
  double v = 0;
  const char* end = raw.data() + raw.size();
  const auto res = std::from_chars(raw.data(), end, v);
  if (res.ec != std::errc() || res.ptr != end) return std::nullopt;
  return v;
}

/// A raw non-negative integer, all of it; nullopt when absent or
/// malformed.
inline std::optional<std::uint64_t> u64(std::string_view raw) {
  if (raw.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const char* end = raw.data() + raw.size();
  const auto res = std::from_chars(raw.data(), end, v);
  if (res.ec != std::errc() || res.ptr != end) return std::nullopt;
  return v;
}

/// A string value of hex digits ("key":"00ff..."), all of it.
inline std::optional<std::uint64_t> hex64(std::string_view raw) {
  if (raw.size() < 3 || raw.front() != '"' || raw.back() != '"')
    return std::nullopt;
  std::uint64_t v = 0;
  const char* end = raw.data() + raw.size() - 1;
  const auto res = std::from_chars(raw.data() + 1, end, v, 16);
  if (res.ec != std::errc() || res.ptr != end) return std::nullopt;
  return v;
}

/// Undo append_escaped: `s` is a string's text between its quotes.
inline void unescape(std::string_view s, std::string& out) {
  if (s.find('\\') == std::string_view::npos) {
    out.assign(s);
    return;
  }
  out.clear();
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) ++i;
    out.push_back(s[i]);
  }
}

/// A raw string value, unescaped into `out` (reusing its buffer).  False,
/// leaving `out` alone, when the value is absent or not a string.
inline bool str(std::string_view raw, std::string& out) {
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') return false;
  unescape(raw.substr(1, raw.size() - 2), out);
  return true;
}

}  // namespace a64fxcc::exec::jsonio
