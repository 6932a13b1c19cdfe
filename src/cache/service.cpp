#include "cache/service.hpp"

#include <cstdio>

namespace a64fxcc::cache {

std::vector<Service::CacheStats> Service::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<CacheStats> out;
  out.reserve(caches_.size());
  for (const auto& c : caches_)
    out.push_back(CacheStats{c->name(), c->stats()});
  return out;
}

std::string Service::stats_text() const {
  std::string out = "cache tier\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-16s %10s %10s %8s %10s %10s\n",
                "cache", "hits", "misses", "hit%", "entries", "bytes");
  out += line;
  for (const CacheStats& c : stats()) {
    std::snprintf(line, sizeof(line),
                  "  %-16s %10llu %10llu %7.1f%% %10zu %10s\n",
                  c.name.c_str(),
                  static_cast<unsigned long long>(c.stats.hits),
                  static_cast<unsigned long long>(c.stats.misses),
                  100.0 * c.stats.hit_rate(), c.stats.entries,
                  format_bytes(c.stats.bytes).c_str());
    out += line;
  }
  return out;
}

std::string format_bytes(std::size_t bytes) {
  char buf[32];
  if (bytes >= (std::size_t{1} << 30))
    std::snprintf(buf, sizeof(buf), "%.1fG",
                  static_cast<double>(bytes) / (1ull << 30));
  else if (bytes >= (std::size_t{1} << 20))
    std::snprintf(buf, sizeof(buf), "%.1fM",
                  static_cast<double>(bytes) / (1ull << 20));
  else if (bytes >= (std::size_t{1} << 10))
    std::snprintf(buf, sizeof(buf), "%.1fK",
                  static_cast<double>(bytes) / (1ull << 10));
  else
    std::snprintf(buf, sizeof(buf), "%zu", bytes);
  return buf;
}

}  // namespace a64fxcc::cache
