#pragma once
// cache::Service — the owner of every memo that outlives one benchmark
// row.
//
// A Service is a registry of named ShardedMap instances with one stats
// surface (the --cache-stats table and the obs/ metrics fold).  A study
// registers one map on it, the harness's "cells" (one seed-independent
// runtime::CellModel per cell), so two harnesses attached to the same
// Service share warm cell models: a second study on a warm Service
// re-uses every cell model of the first and makes no compile, plan or
// evaluation.  What a row's cells share lives in that row's
// runtime::RowMemo and never reaches the Service.

#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/sharded_map.hpp"

namespace a64fxcc::cache {

class Service {
 public:
  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// The cache named `name`, creating it on first use.  Re-requesting an
  /// existing name returns the same instance — callers with the same
  /// Service share warm entries — and throws if the key/value types
  /// disagree with the original registration.
  template <typename K, typename V>
  ShardedMap<K, V>& get_or_create(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& c : caches_)
      if (c->name() == name) {
        auto* typed = dynamic_cast<ShardedMap<K, V>*>(c.get());
        if (typed == nullptr)
          throw std::logic_error("cache::Service: cache '" + name +
                                 "' already registered with other types");
        return *typed;
      }
    auto map = std::make_unique<ShardedMap<K, V>>(name);
    ShardedMap<K, V>* raw = map.get();
    caches_.push_back(std::move(map));
    return *raw;
  }

  struct CacheStats {
    std::string name;
    Stats stats;
  };

  /// Per-cache counters, in registration order.
  [[nodiscard]] std::vector<CacheStats> stats() const;

  /// Human-readable stats table (the `table --cache-stats` output).
  [[nodiscard]] std::string stats_text() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<CacheBase>> caches_;
};

/// Render a byte count compactly ("512", "4.0K", "64.0M", ...).
[[nodiscard]] std::string format_bytes(std::size_t bytes);

}  // namespace a64fxcc::cache
