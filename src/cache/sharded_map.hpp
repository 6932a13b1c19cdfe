#pragma once
// The unified cache tier: a fingerprint-sharded, budgeted, epoch-aware
// concurrent map — the one implementation behind compilers::CompileCache
// and perf::EstimateCache.
//
// Why one tier.  The study is embarrassingly parallel across
// (benchmark x compiler) cells, but the three memoization layers used to
// be independent mutex-guarded std::unordered_maps: at high --jobs every
// hot-path lookup serialized on one of three global locks, and nothing
// managed their lifetime or memory.  ShardedMap gives every cache the
// same mechanics:
//
//   Sharding.   Entries are routed by a caller-supplied 64-bit
//     fingerprint to one of N cache-line-aligned shards (the
//     MUTEX_ON_CACHELINE idiom: a shard's lock and hot counters share a
//     line with nothing else, so lock traffic on one shard never
//     false-shares with another).  Writers lock only their shard.
//
//   Mutex-free hits.  The read path takes no lock at all: buckets are
//     append-only singly-linked chains published with release stores and
//     walked with acquire loads, and the value slot of each node is a
//     std::atomic<std::shared_ptr<const V>> — a hit copies the published
//     shared_ptr straight out of the node.  A reader can never block a
//     writer or another reader.
//
//   Epochs.  Every published value is stamped with the tier epoch
//     (Service::bump_epoch advances it).  A lookup compares stamps and
//     treats older entries as misses, which invalidates an entire tier
//     in O(1) without a stop-the-world clear; stale values are reclaimed
//     lazily by the next budget sweep of their shard.
//
//   Deterministic eviction.  Each cache has a byte budget (split from
//     the tier budget by Service).  When a publish pushes its shard over
//     budget/N_shards, the sweep first reclaims epoch-stale values, then
//     drops live values in *descending fingerprint order* until the
//     shard fits.  Eviction order is derived from key identity — never
//     from wall-clock, insertion order, or scheduling — and every cached
//     function is pure, so an evicting run recomputes identical values
//     and a study's table stays byte-identical to an unbounded cold run
//     at any worker count.
//
// Memory model notes.  Node chains only grow; a node is deleted only by
// the destructor.  Eviction drops the *value* (the dominant allocation)
// and leaves the node skeleton as a negative-cache-free tombstone, so
// readers racing an eviction either copy the old shared_ptr (keeping it
// alive) or see null and miss.  clear()/drop_values() is therefore safe
// against concurrent readers, unlike a destructor-style clear.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/fingerprint.hpp"

namespace a64fxcc::cache {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Counters of one cache (returned by stats(); all monotonic except
/// entries/bytes, which track the live population).
struct Stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  /// Values dropped: budget sweeps, stale-epoch reclamation, clears.
  std::uint64_t evictions = 0;
  std::size_t entries = 0;  ///< live (visible) values
  std::size_t bytes = 0;    ///< accounted bytes of live values

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

/// Type-erased handle the Service manages caches through: name, budget,
/// stats, and the epoch-safe value clear.
class CacheBase {
 public:
  explicit CacheBase(std::string name) : name_(std::move(name)) {}
  virtual ~CacheBase() = default;
  CacheBase(const CacheBase&) = delete;
  CacheBase& operator=(const CacheBase&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Value-byte budget; 0 = unbounded.  Takes effect on the next publish
  /// into each shard (no eager sweep).
  void set_budget(std::size_t bytes) noexcept {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t budget() const noexcept {
    return budget_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] virtual Stats stats() const = 0;

  /// Drop every cached value (bytes return to 0; hit/miss history and
  /// node skeletons remain).  Safe against concurrent readers.
  virtual void drop_values() = 0;

 protected:
  std::atomic<std::size_t> budget_{0};

 private:
  std::string name_;
};

template <typename K, typename V>
class ShardedMap final : public CacheBase {
 public:
  struct Config {
    /// Shard count; rounded up to a power of two, at least 1.
    std::size_t shards = 64;
    /// Value-byte budget (0 = unbounded); normally set by the Service.
    std::size_t budget_bytes = 0;
    /// Runaway-growth backstop on live entries (0 = unlimited): a
    /// publish that would exceed it returns the value uninserted.
    std::size_t max_entries = 0;
  };

  explicit ShardedMap(std::string name, Config cfg = {})
      : CacheBase(std::move(name)), max_entries_(cfg.max_entries) {
    std::size_t n = 1;
    while (n < cfg.shards) n <<= 1;
    shard_mask_ = n - 1;
    shards_ = std::make_unique<Shard[]>(n);
    budget_.store(cfg.budget_bytes, std::memory_order_relaxed);
  }

  /// Share the epoch counter of a Service (must outlive this map).
  /// Entries published under older epochs become invisible whenever the
  /// source advances.
  void attach_epoch(const std::atomic<std::uint64_t>* source) noexcept {
    epoch_src_ = source;
  }

  /// Advance the private epoch (standalone maps; attached maps follow
  /// the Service's counter and ignore this).
  void bump_epoch() noexcept {
    if (epoch_src_ == &own_epoch_)
      own_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_src_->load(std::memory_order_acquire);
  }

  /// The published value for (fp, key), or null.  Lock-free: walks the
  /// bucket chain with acquire loads and copies the atomic shared_ptr.
  /// Counts one hit or one miss.
  [[nodiscard]] std::shared_ptr<const V> find(std::uint64_t fp,
                                              const K& key) const {
    const std::uint64_t rt = mix64(fp);
    const Shard& s = shards_[rt & shard_mask_];
    const std::uint64_t now = epoch();
    for (const Node* n =
             s.buckets[bucket_of(rt)].load(std::memory_order_acquire);
         n != nullptr; n = n->next) {
      if (n->fp != fp || !(n->key == key)) continue;
      // One node per key per chain: stop at the first match either way.
      if (n->epoch.load(std::memory_order_acquire) == now) {
        if (auto v = n->value.load(std::memory_order_acquire); v != nullptr) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return v;
        }
      }
      break;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  struct Published {
    /// The resident value: the argument when this call inserted it, the
    /// earlier winner when a racing publish got there first.
    std::shared_ptr<const V> value;
    std::uint64_t evicted = 0;  ///< values dropped by the budget sweep
    bool inserted = false;
    /// A racing publish got there first.  The lookup this publish
    /// completes now counts as a hit, in stats() and for the caller.
    bool lost_race = false;
  };

  /// Publish `value` for (fp, key) under the current epoch, accounting
  /// `bytes` against the budget; completes a lookup whose find() missed.
  /// First insertion wins races (the pure functions behind every cache
  /// make racing values identical), and the loser's miss is recounted
  /// as a hit — the hit a later-scheduled lookup would have seen — so
  /// misses equal inserted entries at any worker count.  A stale-epoch
  /// or evicted slot is refreshed in place.  Runs the deterministic
  /// budget sweep on its shard before returning.
  Published publish(std::uint64_t fp, const K& key,
                    std::shared_ptr<const V> value, std::size_t bytes) {
    Published out;
    const std::uint64_t rt = mix64(fp);
    Shard& s = shards_[rt & shard_mask_];
    auto& head = s.buckets[bucket_of(rt)];
    const std::uint64_t now = epoch();
    const std::lock_guard<std::mutex> lock(s.mu);
    Node* node = nullptr;
    for (Node* n = head.load(std::memory_order_relaxed); n != nullptr;
         n = n->next)
      if (n->fp == fp && n->key == key) {
        node = n;
        break;
      }
    if (node == nullptr) {
      if (max_entries_ > 0 &&
          entries_.load(std::memory_order_relaxed) >= max_entries_) {
        out.value = std::move(value);
        return out;  // backstop: serve the value, cache nothing
      }
      node = new Node(fp, key, head.load(std::memory_order_relaxed));
      // Release-publish the fully built node; readers acquire the head.
      head.store(node, std::memory_order_release);
    } else if (auto existing = node->value.load(std::memory_order_acquire);
               existing != nullptr) {
      if (node->epoch.load(std::memory_order_acquire) == now) {
        misses_.fetch_sub(1, std::memory_order_relaxed);
        hits_.fetch_add(1, std::memory_order_relaxed);
        out.value = std::move(existing);  // lost the race; first wins
        out.lost_race = true;
        return out;
      }
      drop_value_locked(s, *node);  // stale epoch: reclaim, then refresh
      out.evicted += 1;
    }
    node->bytes = bytes;
    // Value first, then epoch: a racing reader sees either (old-epoch,
    // value) or (new-epoch, value) — never a visible half-published
    // entry.  A spurious miss in the window is harmless (purity).
    node->value.store(value, std::memory_order_release);
    node->epoch.store(now, std::memory_order_release);
    s.bytes += bytes;
    s.entries += 1;
    entries_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    inserts_.fetch_add(1, std::memory_order_relaxed);
    out.value = std::move(value);
    out.inserted = true;
    out.evicted += sweep_locked(s, now);
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    return entries_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Stats stats() const override {
    Stats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.inserts = inserts_.load(std::memory_order_relaxed);
    st.evictions = evictions_.load(std::memory_order_relaxed);
    st.entries = entries_.load(std::memory_order_relaxed);
    st.bytes = bytes_.load(std::memory_order_relaxed);
    return st;
  }

  void drop_values() override {
    for (std::size_t i = 0; i <= shard_mask_; ++i) {
      Shard& s = shards_[i];
      const std::lock_guard<std::mutex> lock(s.mu);
      for (auto& head : s.buckets)
        for (Node* n = head.load(std::memory_order_relaxed); n != nullptr;
             n = n->next)
          if (n->value.load(std::memory_order_acquire) != nullptr)
            drop_value_locked(s, *n);
    }
  }

 private:
  struct Node {
    const std::uint64_t fp;
    const K key;
    Node* const next;  ///< toward older nodes; immutable after publish
    std::atomic<std::uint64_t> epoch{0};
    std::size_t bytes = 0;  ///< guarded by the shard mutex
    std::atomic<std::shared_ptr<const V>> value;

    Node(std::uint64_t f, const K& k, Node* n) : fp(f), key(k), next(n) {}
  };

  static constexpr std::size_t kBucketsPerShard = 64;

  /// One lock + one bucket array + accounting, alone on its cache lines:
  /// contention on one shard never false-shares with a neighbour.
  struct alignas(kCacheLineBytes) Shard {
    mutable std::mutex mu;  ///< writers and sweeps only; reads are free
    std::atomic<Node*> buckets[kBucketsPerShard] = {};
    std::size_t bytes = 0;    ///< live-value bytes (mu)
    std::size_t entries = 0;  ///< live values (mu)

    ~Shard() {
      for (auto& head : buckets) {
        Node* n = head.load(std::memory_order_relaxed);
        while (n != nullptr) {
          Node* next = n->next;
          delete n;
          n = next;
        }
      }
    }
  };

  [[nodiscard]] static constexpr std::size_t bucket_of(
      std::uint64_t routed) noexcept {
    return (routed >> 32) & (kBucketsPerShard - 1);
  }

  /// Drop one live value (shard mutex held).
  void drop_value_locked(Shard& s, Node& n) {
    n.value.store(nullptr, std::memory_order_release);
    s.bytes -= n.bytes;
    s.entries -= 1;
    entries_.fetch_sub(1, std::memory_order_relaxed);
    bytes_.fetch_sub(n.bytes, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    n.bytes = 0;
  }

  /// Deterministic budget sweep of one shard (mutex held): reclaim
  /// stale-epoch values first, then live values in descending
  /// fingerprint order until the shard fits its budget share.
  std::uint64_t sweep_locked(Shard& s, std::uint64_t now) {
    const std::size_t budget = budget_.load(std::memory_order_relaxed);
    if (budget == 0) return 0;
    const std::size_t share = budget / (shard_mask_ + 1);
    if (s.bytes <= share) return 0;
    std::uint64_t dropped = 0;
    std::vector<Node*> live;
    for (auto& head : s.buckets)
      for (Node* n = head.load(std::memory_order_relaxed); n != nullptr;
           n = n->next) {
        if (n->value.load(std::memory_order_acquire) == nullptr) continue;
        if (n->epoch.load(std::memory_order_relaxed) != now) {
          drop_value_locked(s, *n);
          ++dropped;
        } else {
          live.push_back(n);
        }
      }
    if (s.bytes <= share) return dropped;
    // Highest fingerprint evicts first: a pure function of key identity,
    // so which *keys* survive a given resident set is reproducible (ties
    // on equal 64-bit fingerprints are broken by chain order and are
    // vanishingly rare).  Purity of the cached functions keeps tables
    // byte-identical whichever entries get recomputed.
    std::sort(live.begin(), live.end(),
              [](const Node* a, const Node* b) { return a->fp > b->fp; });
    for (Node* n : live) {
      if (s.bytes <= share) break;
      drop_value_locked(s, *n);
      ++dropped;
    }
    return dropped;
  }

  std::size_t shard_mask_ = 0;
  std::size_t max_entries_ = 0;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> own_epoch_{0};
  const std::atomic<std::uint64_t>* epoch_src_ = &own_epoch_;
  // mutable: find() is logically const but counts its hit/miss.
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace a64fxcc::cache
