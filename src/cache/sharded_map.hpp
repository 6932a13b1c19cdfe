#pragma once
// The cache tier's map: a fingerprint-sharded, insert-only concurrent
// map.  It stores the harness's "cells" map, the one memo that threads
// (and studies sharing a cache::Service) read and fill concurrently;
// the memo of one benchmark row belongs to one thread and needs none of
// this (runtime::RowMemo).  The mechanics:
//
//   Sharding.   Entries are routed by a caller-supplied 64-bit
//     fingerprint to one of 64 cache-line-aligned shards (the
//     MUTEX_ON_CACHELINE idiom: a shard's lock and bucket heads share
//     lines with nothing else, so lock traffic on one shard never
//     false-shares with another).  Writers lock only their shard.
//
//   Insert-only.  A published value never changes and is never
//     dropped: every cached function is pure, and the paper-scale study
//     fills the whole tier with a few MB.  A node's fields are all const
//     and fully built before the release store of its bucket head
//     publishes it; nodes are freed only by the destructor.
//
//   Lock-free hits.  A lookup walks its bucket chain with acquire loads
//     and copies the node's shared_ptr without taking a lock, so a
//     reader never blocks a writer or another reader.  Copying a const
//     shared_ptr from many threads is race-free (only its atomic use
//     count changes).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "cache/fingerprint.hpp"

namespace a64fxcc::cache {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Counters of one cache (returned by stats()).
struct Stats {
  std::uint64_t hits = 0;
  /// Lookups that missed.  A publish that loses its race recounts its
  /// miss as a hit, so when every miss publishes, misses == entries.
  std::uint64_t misses = 0;
  std::size_t entries = 0;
  /// Summed byte estimates of the cached values, as the callers
  /// computed them.  Reported only; nothing acts on it.
  std::size_t bytes = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

/// Type-erased handle the Service manages caches through.
class CacheBase {
 public:
  explicit CacheBase(std::string name) : name_(std::move(name)) {}
  virtual ~CacheBase() = default;
  CacheBase(const CacheBase&) = delete;
  CacheBase& operator=(const CacheBase&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] virtual Stats stats() const = 0;

 private:
  std::string name_;
};

template <typename K, typename V>
class ShardedMap final : public CacheBase {
 public:
  explicit ShardedMap(std::string name)
      : CacheBase(std::move(name)),
        shards_(std::make_unique<Shard[]>(kShards)) {}

  /// The published value for (fp, key), or null.  Lock-free: walks the
  /// bucket chain with acquire loads.  Counts one hit or one miss.
  [[nodiscard]] std::shared_ptr<const V> find(std::uint64_t fp,
                                              const K& key) const {
    const std::uint64_t rt = mix64(fp);
    const Shard& s = shards_[shard_of(rt)];
    for (const Node* n =
             s.buckets[bucket_of(rt)].load(std::memory_order_acquire);
         n != nullptr; n = n->next)
      if (n->fp == fp && n->key == key) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return n->value;
      }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  struct Published {
    /// The resident value: the argument when this call inserted it, the
    /// earlier winner when a racing publish got there first.
    std::shared_ptr<const V> value;
    /// A racing publish got there first.  The lookup this publish
    /// completes now counts as a hit, in stats() and for the caller.
    bool lost_race = false;
  };

  /// Publish `value` for (fp, key), adding `bytes` to the reported
  /// estimate; completes a lookup whose find() missed.  First insertion
  /// wins races (the pure functions behind every cache make racing
  /// values identical), and the loser's miss is recounted as a hit — the
  /// hit a later-scheduled lookup would have seen — so misses equal
  /// entries at any worker count.
  Published publish(std::uint64_t fp, const K& key,
                    std::shared_ptr<const V> value, std::size_t bytes) {
    const std::uint64_t rt = mix64(fp);
    Shard& s = shards_[shard_of(rt)];
    auto& head = s.buckets[bucket_of(rt)];
    const std::lock_guard<std::mutex> lock(s.mu);
    const Node* const first = head.load(std::memory_order_relaxed);
    for (const Node* n = first; n != nullptr; n = n->next)
      if (n->fp == fp && n->key == key) {
        misses_.fetch_sub(1, std::memory_order_relaxed);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return {n->value, true};
      }
    // Release-publish the fully built node; readers acquire the head.
    head.store(new Node{fp, key, value, first}, std::memory_order_release);
    entries_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return {std::move(value), false};
  }

  [[nodiscard]] std::size_t size() const {
    return entries_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Stats stats() const override {
    Stats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.entries = entries_.load(std::memory_order_relaxed);
    st.bytes = bytes_.load(std::memory_order_relaxed);
    return st;
  }

 private:
  struct Node {
    const std::uint64_t fp;
    const K key;
    const std::shared_ptr<const V> value;
    const Node* const next;  ///< toward older nodes
  };

  static constexpr std::size_t kShards = 64;
  static constexpr std::size_t kBucketsPerShard = 64;

  /// One lock + one bucket array, alone on its cache lines: contention
  /// on one shard never false-shares with a neighbour.
  struct alignas(kCacheLineBytes) Shard {
    std::mutex mu;  ///< writers only; reads are free
    std::atomic<const Node*> buckets[kBucketsPerShard] = {};

    ~Shard() {
      for (auto& head : buckets)
        for (const Node* n = head.load(std::memory_order_relaxed);
             n != nullptr;) {
          const Node* next = n->next;
          delete n;
          n = next;
        }
    }
  };

  [[nodiscard]] static constexpr std::size_t shard_of(
      std::uint64_t routed) noexcept {
    return routed & (kShards - 1);
  }
  [[nodiscard]] static constexpr std::size_t bucket_of(
      std::uint64_t routed) noexcept {
    return (routed >> 32) & (kBucketsPerShard - 1);
  }

  std::unique_ptr<Shard[]> shards_;
  // mutable: find() is logically const but counts its hit/miss.
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace a64fxcc::cache
